// Experiment E13: google-benchmark microbenchmarks of the core data paths -
// load accounting, lower bounds, threshold generation, the two rebalancers,
// the knapsack kernels that power the cost variants, and one streaming
// session frame.

#include <benchmark/benchmark.h>

#include <chrono>
#include <deque>
#include <string_view>
#include <vector>

#include "algo/greedy.h"
#include "algo/m_partition.h"
#include "algo/thresholds.h"
#include "core/assignment.h"
#include "core/generators.h"
#include "core/lower_bounds.h"
#include "algo/two_proc_exact.h"
#include "core/plan.h"
#include "diffusion/graph.h"
#include "diffusion/local_exchange.h"
#include "knapsack/knapsack.h"
#include "stream/replay.h"
#include "stream/session.h"
#include "stream/trace.h"

namespace {

using namespace lrb;

Instance bench_instance(std::int64_t n) {
  GeneratorOptions gen;
  gen.num_jobs = static_cast<std::size_t>(n);
  gen.num_procs = 32;
  gen.max_size = 5000;
  gen.placement = PlacementPolicy::kHotspot;
  return random_instance(gen, 99);
}

void BM_Makespan(benchmark::State& state) {
  const auto inst = bench_instance(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(makespan(inst, inst.initial));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Makespan)->Arg(1 << 10)->Arg(1 << 14);

void BM_KRemovalBound(benchmark::State& state) {
  const auto inst = bench_instance(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(k_removal_bound(inst, state.range(0) / 50));
  }
}
BENCHMARK(BM_KRemovalBound)->Arg(1 << 10)->Arg(1 << 14);

void BM_CandidateThresholds(benchmark::State& state) {
  const auto inst = bench_instance(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(candidate_thresholds(inst));
  }
}
BENCHMARK(BM_CandidateThresholds)->Arg(1 << 10)->Arg(1 << 14);

void BM_Greedy(benchmark::State& state) {
  const auto inst = bench_instance(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(greedy_rebalance(inst, state.range(0) / 50));
  }
}
BENCHMARK(BM_Greedy)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_MPartition(benchmark::State& state) {
  const auto inst = bench_instance(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(m_partition_rebalance(inst, state.range(0) / 50));
  }
}
BENCHMARK(BM_MPartition)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_KnapsackExact(benchmark::State& state) {
  Rng rng(5);
  std::vector<KnapsackItem> items(static_cast<std::size_t>(state.range(0)));
  for (auto& item : items) {
    item.size = rng.uniform_int(1, 100);
    item.value = rng.uniform_int(1, 50);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(knapsack_exact(items, 500));
  }
}
BENCHMARK(BM_KnapsackExact)->Arg(32)->Arg(256);

void BM_KnapsackSizeRelaxed(benchmark::State& state) {
  Rng rng(5);
  std::vector<KnapsackItem> items(static_cast<std::size_t>(state.range(0)));
  for (auto& item : items) {
    item.size = rng.uniform_int(1, 1'000'000);
    item.value = rng.uniform_int(1, 50);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(knapsack_size_relaxed(items, 5'000'000, 0.1));
  }
}
BENCHMARK(BM_KnapsackSizeRelaxed)->Arg(32)->Arg(256);

void BM_TwoProcExactDp(benchmark::State& state) {
  GeneratorOptions gen;
  gen.num_jobs = static_cast<std::size_t>(state.range(0));
  gen.num_procs = 2;
  gen.max_size = 500;
  gen.placement = PlacementPolicy::kHotspot;
  const auto inst = random_instance(gen, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(two_proc_exact_rebalance(inst, state.range(0) / 4));
  }
}
BENCHMARK(BM_TwoProcExactDp)->Arg(32)->Arg(128);

void BM_MakePlanMonotone(benchmark::State& state) {
  GeneratorOptions gen;
  gen.num_jobs = static_cast<std::size_t>(state.range(0));
  gen.num_procs = 16;
  gen.placement = PlacementPolicy::kHotspot;
  const auto inst = random_instance(gen, 5);
  const auto result = greedy_rebalance(inst, state.range(0) / 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        make_plan(inst, result.assignment, PlanOrder::kMonotone));
  }
}
BENCHMARK(BM_MakePlanMonotone)->Arg(256)->Arg(1024);

void BM_LocalExchangeRing(benchmark::State& state) {
  GeneratorOptions gen;
  gen.num_jobs = static_cast<std::size_t>(state.range(0));
  gen.num_procs = 16;
  gen.placement = PlacementPolicy::kHotspot;
  const auto inst = random_instance(gen, 7);
  const auto graph = diffusion::ring_graph(16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(diffusion::local_exchange_rebalance(inst, graph));
  }
}
BENCHMARK(BM_LocalExchangeRing)->Arg(256)->Arg(1024);

// Arrivals (Graham placement) and departures on a 16-processor session
// with every trigger off: the per-delta bookkeeping of the dynamic setting.
void BM_SessionArriveDepart(benchmark::State& state) {
  stream::TraceOptions opt;
  opt.num_events = static_cast<std::size_t>(state.range(0));
  opt.departure_fraction = 0.4;
  const auto trace = stream::random_trace(opt, 9);
  Instance cluster;
  cluster.num_procs = 16;
  stream::TriggerConfig quiet;  // no imbalance or delta-count trigger
  const stream::SolveFn solve = stream::serial_reference_solver();
  for (auto _ : state) {
    std::string error;
    auto session = stream::ClusterSession::open(cluster, quiet, &error);
    if (!session) {
      state.SkipWithError(error.c_str());
      break;
    }
    std::uint64_t seq = 0;
    for (const auto& delta : trace) {
      benchmark::DoNotOptimize(session->step(delta, ++seq, solve));
    }
    benchmark::DoNotOptimize(session->makespan());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SessionArriveDepart)->Arg(1 << 10)->Arg(1 << 14);

// One server ack's worth of session work: a 16-delta step batch, then the
// lower bound and the state digest every ack carries. The batch arrives 6
// jobs, departs the 6 oldest and resizes 4, so the cluster stays at n jobs
// however many iterations run. No trigger is set: replans are solver time,
// measured by the solver benchmarks. `digest_ns` is the digest's time per
// frame, which must stay flat as n grows.
void BM_SessionFrame(benchmark::State& state) {
  const auto initial = bench_instance(state.range(0));
  stream::TriggerConfig trigger;
  trigger.spec = solver::BackendId::kBestOf;
  std::string error;
  auto session = stream::ClusterSession::open(initial, trigger, &error);
  if (!session) {
    state.SkipWithError(error.c_str());
    return;
  }
  const stream::SolveFn solve = stream::serial_reference_solver();
  std::deque<std::uint64_t> live;
  for (std::uint64_t id = 0; id < initial.num_jobs(); ++id) {
    live.push_back(id);
  }
  std::uint64_t next_id = live.size();
  std::uint64_t seq = 0;
  Rng rng(17);
  static constexpr stream::DeltaKind kBatch[16] = {
      stream::DeltaKind::kJobArrive, stream::DeltaKind::kJobDepart,
      stream::DeltaKind::kJobUpdate, stream::DeltaKind::kJobArrive,
      stream::DeltaKind::kJobDepart, stream::DeltaKind::kJobArrive,
      stream::DeltaKind::kJobDepart, stream::DeltaKind::kJobUpdate,
      stream::DeltaKind::kJobArrive, stream::DeltaKind::kJobDepart,
      stream::DeltaKind::kJobArrive, stream::DeltaKind::kJobDepart,
      stream::DeltaKind::kJobUpdate, stream::DeltaKind::kJobArrive,
      stream::DeltaKind::kJobDepart, stream::DeltaKind::kJobUpdate};
  double digest_ns = 0.0;
  for (auto _ : state) {
    for (const stream::DeltaKind kind : kBatch) {
      stream::Delta delta;
      delta.kind = kind;
      if (kind == stream::DeltaKind::kJobArrive) {
        delta.id = next_id++;
        delta.size = rng.uniform_int(1, 5000);
        live.push_back(delta.id);
      } else if (kind == stream::DeltaKind::kJobDepart) {
        delta.id = live.front();
        live.pop_front();
      } else {
        delta.id = live[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1))];
        delta.size = rng.uniform_int(1, 5000);
      }
      benchmark::DoNotOptimize(session->step(delta, ++seq, solve));
    }
    benchmark::DoNotOptimize(session->lower_bound());
    const auto started = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(session->digest());
    digest_ns += std::chrono::duration<double, std::nano>(
                     std::chrono::steady_clock::now() - started)
                     .count();
  }
  state.counters["digest_ns"] =
      benchmark::Counter(digest_ns, benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_SessionFrame)->Arg(1 << 10)->Arg(1 << 12)->Arg(1 << 14);

}  // namespace

// Hand-rolled BENCHMARK_MAIN so the binary honors the harness-wide --smoke
// contract: strip the flag and pin min_time to ~0 so every benchmark runs a
// single short iteration batch instead of the default wall-clock budget.
int main(int argc, char** argv) {
  std::vector<char*> args;
  bool smoke = false;
  for (int i = 0; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") {
      smoke = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  static char min_time[] = "--benchmark_min_time=0.001";
  if (smoke) args.push_back(min_time);
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
