// Canonicalizing solution cache bench (docs/caching.md): repeated-
// instance serving workloads — U unique instances, each requested R times
// in shuffled order, solved in tick-sized batches — through two otherwise
// identical BatchSolvers, one with the cache off and one with it on.
//
// Both solvers take the engine's one path (canonicalize, solve the
// canonical instance, map back), so the ratio isolates what the memo adds.
// Three profiles:
//
//   * "ptas": U unique PTAS requests (the multi-millisecond DP solver the
//     cache exists for). This is the gated profile: --min-speedup applies
//     to its warm speedup.
//   * "best-of": the mixed serving corpus under the default best-of
//     roster, whose solves are only microseconds. Reported for honesty —
//     canonicalize+probe+map overhead is the same order as the solve
//     itself there; it is not gated.
//   * "unique": the same corpus with R = 1 and a fresh instance set every
//     pass, so every request is a first sighting: what caching costs on
//     unique traffic that admission keeps out of the LRU. Not gated.
//
// Cached numbers are the warm steady state (min over reps after a cold
// first pass, reported separately); the interleaved min-over-reps
// protocol mirrors bench_ptas so scheduler noise on a shared runner
// degrades both sides of the ratio together. A timed sample is a fixed
// number of consecutive passes per side, chosen per profile so that one
// sample lasts tens of milliseconds: a single best-of pass takes about a
// millisecond, too short to time. Times are reported per pass. Every
// unique instance's cached reply is byte-compared against
// engine::cached_serial_reference on three consecutive sightings (for the
// unique profile: deferred, admitting miss, hit) before any number is
// reported: a fast wrong cache must fail the bench, not win it.
//
//   bench_cache                                  # all profiles to stdout
//   bench_cache --smoke                          # tiny run (ctest bench-smoke)
//   bench_cache --json bench/BENCH_cache.json --min-speedup 5   # CI gate

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench_common.h"
#include "cache/canonical.h"
#include "core/generators.h"
#include "engine/batch_solver.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/timer.h"
#include "util/version.h"

namespace {

using namespace lrb;

constexpr std::size_t kTick = 64;  // requests per solve_items() batch
constexpr double kPtasEps = 0.4;

struct Workload {
  std::string name;
  solver::SolverSpec spec;
  std::size_t uniques = 0;
  std::size_t repeats = 0;
  /// Instance sets of `uniques` each; pass p draws from set p % sets, so
  /// with one set per pass every pass is fresh traffic.
  std::size_t sets = 1;
  std::vector<Instance> instances;  // sets * uniques
  std::vector<std::int64_t> ks;     // one move budget per instance
  std::vector<std::size_t> order;   // uniques * repeats, shuffled
  /// Passes per timed sample on each side.
  std::size_t uncached_passes = 1;
  std::size_t cached_passes = 1;
};

void fill_order(Workload& w) {
  w.order.reserve(w.uniques * w.repeats);
  for (std::size_t r = 0; r < w.repeats; ++r) {
    for (std::size_t i = 0; i < w.uniques; ++i) w.order.push_back(i);
  }
  Rng rng(42);
  shuffle(std::span<std::size_t>(w.order), rng);
}

/// The gated profile: small instances, expensive solver (the same corpus
/// shape bench_ptas measures the DP engine on).
Workload ptas_workload(std::size_t uniques, std::size_t repeats) {
  Workload w;
  w.name = "ptas";
  w.spec = solver::SolverSpec(solver::BackendId::kPtas, {.eps = kPtasEps});
  w.uniques = uniques;
  w.repeats = repeats;
  // An uncached pass runs the DP 128 times (about a second); a warm pass
  // is all hits (under a millisecond).
  w.cached_passes = bench::smoke_cap<std::size_t>(64, 1);
  for (std::uint64_t i = 0; i < uniques; ++i) {
    GeneratorOptions gen;
    gen.num_jobs = 14;
    gen.num_procs = 4;
    gen.min_size = 1;
    gen.max_size = 100;
    gen.size_dist = static_cast<SizeDistribution>(i % 5);
    gen.placement = static_cast<PlacementPolicy>((i / 5) % 5);
    gen.max_cost = 10;
    w.instances.push_back(random_instance(gen, 9100 + i));
    w.ks.push_back(static_cast<std::int64_t>(gen.num_jobs) / 4);
  }
  fill_order(w);
  return w;
}

/// The informational profile: the shared serving corpus under best-of.
Workload best_of_workload(std::size_t uniques, std::size_t repeats) {
  Workload w;
  w.name = "best-of";
  w.spec = solver::BackendId::kBestOf;
  w.uniques = uniques;
  w.repeats = repeats;
  w.uncached_passes = w.cached_passes = bench::smoke_cap<std::size_t>(96, 1);
  for (std::size_t i = 0; i < uniques; ++i) {
    w.instances.push_back(mixed_corpus_instance(i, 0xcac4e));
    w.ks.push_back(std::max<std::int64_t>(
        1, static_cast<std::int64_t>(w.instances.back().num_jobs()) / 4));
  }
  fill_order(w);
  return w;
}

/// The unique-traffic profile: the serving corpus under best-of, R = 1,
/// one disjoint instance set per pass: the cold pass, every timed pass of
/// `reps` samples, and the verification set. Canonical duplicates (the
/// corpus's unit-size families repeat forms across indices) are skipped,
/// so no request anywhere in the run is a second sighting.
Workload unique_workload(std::size_t uniques, std::size_t reps) {
  Workload w;
  w.name = "unique";
  w.spec = solver::BackendId::kBestOf;
  w.uniques = uniques;
  w.repeats = 1;
  w.uncached_passes = w.cached_passes = bench::smoke_cap<std::size_t>(4, 1);
  w.sets = 2 + reps * w.cached_passes;
  const std::size_t sets = w.sets;
  std::unordered_set<std::string> keys;
  for (std::size_t index = 0; w.instances.size() < uniques * sets; ++index) {
    Instance instance = mixed_corpus_instance(index, 0x0e1c);
    const std::int64_t k = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(instance.num_jobs()) / 4);
    const auto canon = cache::canonicalize(instance);
    if (!keys.insert(cache::encode_cache_key(canon.instance, w.spec, k))
             .second) {
      continue;
    }
    w.instances.push_back(std::move(instance));
    w.ks.push_back(k);
  }
  fill_order(w);
  return w;
}

engine::BatchSolver::TickItem make_item(const Workload& w, std::size_t set,
                                        std::size_t idx) {
  const std::size_t at = (set % w.sets) * w.uniques + idx;
  engine::BatchSolver::TickItem item;
  item.instance = &w.instances[at];
  item.k = w.ks[at];
  item.spec = w.spec;
  return item;
}

/// One full pass over instance set `set` in tick-sized batches; returns
/// seconds.
double run_pass(engine::BatchSolver& solver, const Workload& w,
                std::size_t set) {
  std::vector<engine::BatchSolver::TickItem> items;
  items.reserve(kTick);
  Timer timer;
  for (std::size_t begin = 0; begin < w.order.size(); begin += kTick) {
    const std::size_t end = std::min(begin + kTick, w.order.size());
    items.clear();
    for (std::size_t pos = begin; pos < end; ++pos) {
      items.push_back(make_item(w, set, w.order[pos]));
    }
    const auto results = solver.solve_items(items);
    if (results.size() != items.size()) {
      std::cerr << "bench_cache: solve_items returned " << results.size()
                << " results for " << items.size() << " items\n";
      std::exit(1);
    }
  }
  return timer.seconds();
}

/// One timed sample: `passes` consecutive passes, pass p over instance set
/// `first_set + p`. Returns seconds per pass.
double run_sample(engine::BatchSolver& solver, const Workload& w,
                  std::size_t first_set, std::size_t passes) {
  Timer timer;
  for (std::size_t p = 0; p < passes; ++p) {
    (void)run_pass(solver, w, first_set + p);
  }
  return timer.seconds() / static_cast<double>(passes);
}

/// Every unique instance of set `set` through the cache-enabled solver
/// three times in a row (warm hits for the repeated profiles; deferred,
/// admitting miss and hit for a fresh set) vs the canonical-solve serial
/// reference. Returns false on any field diff.
bool verify_byte_identity(engine::BatchSolver& cached, const Workload& w,
                          std::size_t set) {
  bool ok = true;
  for (std::size_t i = 0; i < w.uniques; ++i) {
    const engine::BatchSolver::TickItem item = make_item(w, set, i);
    const RebalanceResult want =
        engine::cached_serial_reference(w.spec, *item.instance, item.k);
    for (int sighting = 0; sighting < 3; ++sighting) {
      const auto got = cached.solve_items({&item, 1});
      if (got.size() != 1 || got[0].assignment != want.assignment ||
          got[0].makespan != want.makespan || got[0].moves != want.moves ||
          got[0].cost != want.cost || got[0].threshold != want.threshold) {
        std::cerr << "bench_cache: cached " << w.name << " reply for unique "
                  << i << " (sighting " << sighting + 1
                  << ") differs from cached_serial_reference\n";
        ok = false;
      }
    }
  }
  return ok;
}

struct ProfileResult {
  std::string name;
  std::size_t uniques = 0;
  std::size_t repeats = 0;
  std::size_t requests = 0;
  std::size_t uncached_passes = 0;
  std::size_t cached_passes = 0;
  double uncached_best = 0.0;
  double cold_seconds = 0.0;
  double cached_best = 0.0;
  double speedup_warm = 0.0;
  double speedup_cold = 0.0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
  std::uint64_t admissions_deferred = 0;
  bool byte_identical = false;
};

ProfileResult run_profile(const Workload& w, int reps) {
  engine::BatchOptions uncached_options;
  uncached_options.workers = 4;
  obs::Registry uncached_registry;
  uncached_options.metrics = &uncached_registry;
  engine::BatchSolver uncached(uncached_options);

  engine::BatchOptions cached_options = uncached_options;
  cached_options.cache_bytes = std::size_t{64} << 20;
  obs::Registry cached_registry;
  cached_options.metrics = &cached_registry;
  engine::BatchSolver cached(cached_options);

  // One pass each before timing: warms the uncached solver's scratch
  // arenas and fills the cache. The cached side's first pass IS the cold
  // number — intra-tick dedup already applies there, which is part of the
  // repeated-instance serving path being measured.
  (void)run_pass(uncached, w, 0);
  const double cold_seconds = run_pass(cached, w, 0);

  double uncached_best = 0.0;
  double cached_best = 0.0;
  const std::size_t stride = std::max(w.uncached_passes, w.cached_passes);
  for (int rep = 0; rep < reps; ++rep) {
    // Interleaved so a load spike degrades both sides of the ratio; both
    // sides see the same instance sets.
    const std::size_t set = 1 + static_cast<std::size_t>(rep) * stride;
    const double u = run_sample(uncached, w, set, w.uncached_passes);
    const double c = run_sample(cached, w, set, w.cached_passes);
    if (rep == 0 || u < uncached_best) uncached_best = u;
    if (rep == 0 || c < cached_best) cached_best = c;
  }

  ProfileResult out;
  out.name = w.name;
  out.uniques = w.uniques;
  out.repeats = w.repeats;
  out.requests = w.order.size();
  out.uncached_best = uncached_best;
  out.cold_seconds = cold_seconds;
  out.cached_best = cached_best;
  out.speedup_warm = cached_best > 0.0 ? uncached_best / cached_best : 0.0;
  out.speedup_cold = cold_seconds > 0.0 ? uncached_best / cold_seconds : 0.0;
  // Counters cover the timed passes only, before the verification solves.
  out.hits = cached_registry.counter("cache.hits").value();
  out.misses = cached_registry.counter("cache.misses").value();
  out.inserts = cached_registry.counter("cache.inserts").value();
  out.evictions = cached_registry.counter("cache.evictions").value();
  out.admissions_deferred =
      cached_registry.counter("cache.admissions_deferred").value();
  out.uncached_passes = w.uncached_passes;
  out.cached_passes = w.cached_passes;
  out.byte_identical = verify_byte_identity(
      cached, w, 1 + static_cast<std::size_t>(reps) * stride);
  return out;
}

void print_profile(const ProfileResult& p) {
  const double requests = static_cast<double>(p.requests);
  std::cout << "profile " << p.name << " (" << p.uniques << " uniques x "
            << p.repeats << " repeats = " << p.requests << " requests, tick "
            << kTick << "; passes per sample " << p.uncached_passes
            << " uncached, " << p.cached_passes << " cached)\n"
            << "  uncached:    " << p.uncached_best << " s  ("
            << requests / p.uncached_best << " req/s)\n"
            << "  cached cold: " << p.cold_seconds
            << " s  (first pass, intra-tick dedup only)\n"
            << "  cached warm: " << p.cached_best << " s  ("
            << requests / p.cached_best << " req/s)\n"
            << "  speedup: warm " << p.speedup_warm << "x, cold "
            << p.speedup_cold << "x;  cache " << p.hits << " hits / "
            << p.misses << " misses / " << p.inserts << " inserts / "
            << p.evictions << " evictions / " << p.admissions_deferred
            << " deferred\n"
            << "  byte-identity vs cached_serial_reference: "
            << (p.byte_identical ? "OK" : "FAIL") << "\n";
}

void emit_profile_json(std::ostream& json, const ProfileResult& p) {
  const double requests = static_cast<double>(p.requests);
  json << "  \"" << p.name << "\": {\n"
       << "    \"unique_instances\": " << p.uniques << ",\n"
       << "    \"repeats\": " << p.repeats << ",\n"
       << "    \"requests\": " << p.requests << ",\n"
       << "    \"passes_per_sample\": {\"uncached\": " << p.uncached_passes
       << ", \"cached\": " << p.cached_passes << "},\n"
       << "    \"uncached\": {\"best_seconds\": " << p.uncached_best
       << ", \"requests_per_sec\": " << requests / p.uncached_best << "},\n"
       << "    \"cached_cold\": {\"seconds\": " << p.cold_seconds << "},\n"
       << "    \"cached_warm\": {\"best_seconds\": " << p.cached_best
       << ", \"requests_per_sec\": " << requests / p.cached_best << "},\n"
       << "    \"cache\": {\"hits\": " << p.hits << ", \"misses\": "
       << p.misses << ", \"inserts\": " << p.inserts
       << ", \"evictions\": " << p.evictions
       << ", \"admissions_deferred\": " << p.admissions_deferred << "},\n"
       << "    \"speedup_warm\": " << p.speedup_warm << ",\n"
       << "    \"speedup_cold\": " << p.speedup_cold << ",\n"
       << "    \"byte_identical\": " << (p.byte_identical ? "true" : "false")
       << "\n  }";
}

int run_bench(const std::string& json_path, double min_speedup) {
  using namespace lrb::bench;
  const int reps = smoke_cap(5, 1);
  const ProfileResult ptas = run_profile(
      ptas_workload(smoke_cap<std::size_t>(8, 3), smoke_cap<std::size_t>(16, 4)),
      reps);
  const ProfileResult best_of = run_profile(
      best_of_workload(smoke_cap<std::size_t>(12, 4),
                       smoke_cap<std::size_t>(16, 4)),
      reps);
  const ProfileResult unique = run_profile(
      unique_workload(smoke_cap<std::size_t>(1024, 16),
                      static_cast<std::size_t>(reps)),
      reps);

  std::cout << "solution-cache bench (eps=" << kPtasEps << " for ptas, "
            << reps << " reps, min of reps)\n";
  print_profile(ptas);
  print_profile(best_of);
  print_profile(unique);

  if (!json_path.empty()) {
    std::ofstream json(json_path);
    if (!json) {
      std::cerr << "bench_cache: cannot write " << json_path << "\n";
      return 1;
    }
    json << "{\n"
         << "  \"schema\": \"" << kCacheBenchSchema << "\",\n"
         << "  \"hardware_concurrency\": "
         << std::thread::hardware_concurrency() << ",\n"
         << "  \"build_type\": \"" << build_type() << "\",\n"
         << "  \"tick\": " << kTick << ",\n"
         << "  \"reps\": " << reps << ",\n"
         << "  \"ptas_eps\": " << kPtasEps << ",\n"
         << "  \"gated_profile\": \"ptas\",\n";
    emit_profile_json(json, ptas);
    json << ",\n";
    emit_profile_json(json, best_of);
    json << ",\n";
    emit_profile_json(json, unique);
    json << "\n}\n";
  }

  if (!ptas.byte_identical || !best_of.byte_identical ||
      !unique.byte_identical) {
    return 1;
  }
  if (min_speedup > 0.0 && ptas.speedup_warm < min_speedup) {
    std::cerr << "bench_cache: FAIL speedup " << ptas.speedup_warm
              << " < required " << min_speedup << "\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  double min_speedup = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--smoke") {
      lrb::bench::smoke_mode() = true;
    } else if (arg == "--json") {
      const char* v = next();
      if (v == nullptr) {
        std::cerr << "bench_cache: --json needs a path\n";
        return 2;
      }
      json_path = v;
    } else if (arg == "--min-speedup") {
      const char* v = next();
      if (v == nullptr) {
        std::cerr << "bench_cache: --min-speedup needs a value\n";
        return 2;
      }
      min_speedup = std::atof(v);
    } else {
      std::cerr << "bench_cache: unknown argument '" << arg
                << "' (accepts --smoke, --json PATH, --min-speedup X)\n";
      return 2;
    }
  }
  return run_bench(json_path, min_speedup);
}
