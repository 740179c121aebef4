// Ablation studies for the design choices DESIGN.md calls out:
//   A. GREEDY's reinsertion order (the paper leaves it "arbitrary").
//   B. Local-search polishing after M-PARTITION / best-of (our extension -
//      the guarantee is unchanged, the practical gap closes).
//   C. The knapsack relaxation eps inside cost-PARTITION (quality vs time).
//   D. Robustness to forced maintenance drains in the simulator.

#include <iostream>

#include "algo/cost_partition.h"
#include "algo/greedy.h"
#include "algo/local_search.h"
#include "algo/m_partition.h"
#include "bench_common.h"
#include "core/lower_bounds.h"
#include "sim/policies.h"
#include "sim/simulator.h"
#include "solver/registry.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace lrb;
  using namespace lrb::bench;
  if (!parse_bench_flags(argc, argv)) return 2;

  std::cout << "Ablation A: GREEDY reinsertion order\n\n";
  {
    Table table({"workload", "as-removed", "largest-first", "smallest-first"});
    // The tight family first: order is the difference between bad and worse.
    for (ProcId m : {ProcId{4}, ProcId{8}}) {
      const auto family = greedy_tight_instance(m);
      table.row().add("tight m=" + std::to_string(m));
      for (auto order : {GreedyOrder::kAsRemoved, GreedyOrder::kLargestFirst,
                         GreedyOrder::kSmallestFirst}) {
        table.add(ratio(greedy_rebalance(family.instance, family.k, order).makespan,
                        family.opt),
                  4);
      }
    }
    for (const auto& family : small_families()) {
      std::vector<double> r[3];
      for (std::uint64_t seed = 0; seed < smoke_cap<std::uint64_t>(30, 2);
           ++seed) {
        const auto inst = random_instance(family.options, seed);
        const Size opt = exact_opt_moves(inst, 4);
        int idx = 0;
        for (auto order : {GreedyOrder::kAsRemoved, GreedyOrder::kLargestFirst,
                           GreedyOrder::kSmallestFirst}) {
          r[idx++].push_back(
              ratio(greedy_rebalance(inst, 4, order).makespan, opt));
        }
      }
      table.row().add(family.name + " (mean)");
      for (auto& samples : r) table.add(summarize(samples).mean, 4);
    }
    table.print(std::cout);
    std::cout << "\n";
  }

  std::cout << "Ablation B: local-search polishing (n = 2000, vs certified "
               "lower bound)\n\n";
  {
    Table table({"family", "k", "m-partition", "mp + ls", "best-of",
                 "best-of + ls", "ls steps"});
    for (const auto& family :
         large_families(smoke_cap<std::size_t>(2000, 200), 16)) {
      for (std::int64_t k : {20, 80}) {
        std::vector<double> mp_r, mpls_r, best_r, bestls_r, steps;
        for (std::uint64_t seed = 0; seed < smoke_cap<std::uint64_t>(8, 1);
             ++seed) {
          const auto inst = random_instance(family.options, seed);
          const Size lb = combined_lower_bound(inst, k);
          const auto mp = m_partition_rebalance(inst, k);
          mp_r.push_back(ratio(mp.makespan, lb));
          LocalSearchOptions options;
          options.max_moves = k;
          LocalSearchStats stats;
          const auto mpls = local_search_improve(inst, mp, options, &stats);
          mpls_r.push_back(ratio(mpls.makespan, lb));
          steps.push_back(static_cast<double>(stats.rounds));
          const auto best =
              solver::solve_serial(solver::BackendId::kBestOf, inst, k);
          best_r.push_back(ratio(best.makespan, lb));
          const auto bestls = local_search_improve(inst, best, options);
          bestls_r.push_back(ratio(bestls.makespan, lb));
        }
        table.row()
            .add(family.name)
            .add(k)
            .add(summarize(mp_r).mean, 4)
            .add(summarize(mpls_r).mean, 4)
            .add(summarize(best_r).mean, 4)
            .add(summarize(bestls_r).mean, 4)
            .add(summarize(steps).mean, 4);
      }
    }
    table.print(std::cout);
    std::cout << "\n";
  }

  std::cout << "Ablation C: knapsack relaxation eps inside cost-PARTITION\n\n";
  {
    GeneratorOptions gen;
    gen.num_jobs = smoke_cap<std::size_t>(60, 20);
    gen.num_procs = 6;
    gen.max_size = 500;
    gen.placement = PlacementPolicy::kHotspot;
    gen.cost_model = CostModel::kProportional;
    Table table({"eps", "mean makespan", "mean cost", "mean ms"});
    for (double eps : {0.01, 0.05, 0.2, 0.5}) {
      std::vector<double> makespans, costs, times;
      for (std::uint64_t seed = 0; seed < smoke_cap<std::uint64_t>(10, 2);
           ++seed) {
        const auto inst = random_instance(gen, seed);
        CostPartitionOptions options;
        options.budget = inst.total_size() / 10;
        options.eps = eps;
        options.max_knapsack_cells = 1 << 18;  // force the relaxation path
        Timer timer;
        const auto result = cost_partition_rebalance(inst, options);
        times.push_back(timer.millis());
        makespans.push_back(static_cast<double>(result.makespan));
        costs.push_back(static_cast<double>(result.cost));
      }
      table.row()
          .add(eps, 3)
          .add(summarize(makespans).mean, 5)
          .add(summarize(costs).mean, 5)
          .add(summarize(times).mean, 4);
    }
    table.print(std::cout);
    std::cout << "\n";
  }

  std::cout << "Ablation D: robustness to maintenance drains (sim)\n\n";
  {
    sim::SimOptions base;
    base.workload.num_sites = 200;
    base.num_servers = 10;
    base.steps = smoke_cap<std::size_t>(200, 40);
    base.rebalance_every = 5;
    base.move_budget = 10;
    Table table({"policy", "drain prob", "mean imb", "forced moves",
                 "policy moves"});
    for (const auto& policy : sim::unit_policies()) {
      if (policy.backend != nullptr && !policy.backend->respects_k) continue;
      for (double drain : {0.0, 0.05, 0.15}) {
        std::vector<double> imb, forced, voluntary;
        for (std::uint64_t seed = 1; seed <= smoke_cap<std::uint64_t>(4, 1);
             ++seed) {
          auto options = base;
          options.drain_prob = drain;
          options.seed = seed;
          sim::Simulator simulator(options, policy.run);
          const auto result = simulator.run();
          imb.push_back(result.mean_imbalance);
          forced.push_back(static_cast<double>(result.total_forced_moves));
          voluntary.push_back(static_cast<double>(result.total_moves));
        }
        table.row()
            .add(policy.name)
            .add(drain, 3)
            .add(summarize(imb).mean, 4)
            .add(summarize(forced).mean, 4)
            .add(summarize(voluntary).mean, 4);
      }
    }
    table.print(std::cout);
  }
  std::cout << "\nAblation E: migration latency (gradual plan execution)\n\n";
  {
    sim::SimOptions base;
    base.workload.num_sites = 200;
    base.num_servers = 10;
    base.steps = smoke_cap<std::size_t>(200, 40);
    base.rebalance_every = 5;
    base.move_budget = 10;
    Table table({"migrations/step", "mean imb", "p90 imb", "total moves"});
    for (std::size_t rate : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                             std::size_t{10}}) {
      std::vector<double> imb, p90, moves;
      for (std::uint64_t seed = 1; seed <= smoke_cap<std::uint64_t>(4, 1);
           ++seed) {
        auto options = base;
        options.migrations_per_step = rate;
        options.seed = seed;
        sim::Simulator simulator(options,
                                 sim::unit_policy("greedy"));
        const auto result = simulator.run();
        imb.push_back(result.mean_imbalance);
        p90.push_back(result.imbalance.p90);
        moves.push_back(static_cast<double>(result.total_moves));
      }
      table.row()
          .add(rate == 0 ? std::string("instant") : std::to_string(rate))
          .add(summarize(imb).mean, 4)
          .add(summarize(p90).mean, 4)
          .add(summarize(moves).mean, 4);
    }
    table.print(std::cout);
  }
  std::cout << "\nExpected shapes: (A) order barely matters off the tight "
               "family; (B) polishing closes most of the remaining gap at "
               "zero guarantee cost; (C) smaller eps buys little quality at "
               "real cpu cost; (D) active policies absorb drains, idle ones "
               "accumulate imbalance; (E) slow migration drains degrade "
               "tracking gracefully toward the idle baseline.\n";
  return 0;
}
