// Experiment E17: the process-migration debate from the paper's
// introduction. Lazowska et al. [9] claim migration only pays for
// unrealistic CPU-bound workloads; Harchol-Balter & Downey [6] counter that
// real (heavy-tailed) process lifetimes make it worthwhile. Same simulator,
// same arrival process, same MEAN lifetime - only the tail differs.

#include <iostream>

#include "bench_common.h"
#include "sim/process_sim.h"
#include "solver/registry.h"

int main(int argc, char** argv) {
  using namespace lrb;
  using namespace lrb::bench;
  using namespace lrb::sim;
  if (!parse_bench_flags(argc, argv)) return 2;

  std::cout << "E17: does process migration pay? (m = 8, 3000 steps, mean "
               "lifetime 60 steps, 6 seeds per row)\n\n";

  struct Row {
    const char* tail;
    LifetimeModel model;
    double alpha;
    std::size_t rebalance_every;  // 0 = never migrate
    std::int64_t k;
  };
  const Row rows[] = {
      {"heavy (Pareto a=1.1)", LifetimeModel::kPareto, 1.1, 0, 0},
      {"heavy (Pareto a=1.1)", LifetimeModel::kPareto, 1.1, 10, 4},
      {"heavy (Pareto a=1.1)", LifetimeModel::kPareto, 1.1, 5, 8},
      {"light (exponential)", LifetimeModel::kExponential, 0, 0, 0},
      {"light (exponential)", LifetimeModel::kExponential, 0, 10, 4},
      {"light (exponential)", LifetimeModel::kExponential, 0, 5, 8},
  };

  Table table({"lifetimes", "migration", "mean imb", "p90 imb",
               "mean slowdown", "migrations/1k steps"});
  for (const auto& row : rows) {
    std::vector<double> imb, p90, slowdown, migrations;
    for (std::uint64_t seed = 1; seed <= smoke_cap<std::uint64_t>(6, 1);
         ++seed) {
      ProcessSimOptions options;
      options.num_procs = 8;
      options.steps = smoke_cap<std::size_t>(3000, 200);
      options.arrival_rate = 1.5;
      options.mean_lifetime = 60.0;
      options.lifetime_model = row.model;
      if (row.alpha > 0) options.pareto_alpha = row.alpha;
      options.rebalance_every = row.rebalance_every;
      options.move_budget = row.k;
      options.seed = seed;
      ProcessPolicy policy;
      if (row.rebalance_every > 0) {
        policy = [](const Instance& inst, std::int64_t k) {
          return solver::solve_serial(solver::BackendId::kBestOf, inst, k);
        };
      }
      const auto result = run_process_sim(options, policy);
      imb.push_back(result.imbalance.mean);
      p90.push_back(result.imbalance.p90);
      slowdown.push_back(result.mean_slowdown);
      migrations.push_back(static_cast<double>(result.migrations) * 1000.0 /
                           static_cast<double>(options.steps));
    }
    table.row()
        .add(row.tail)
        .add(row.rebalance_every == 0
                 ? std::string("never")
                 : "every " + std::to_string(row.rebalance_every) +
                       ", k=" + std::to_string(row.k))
        .add(summarize(imb).mean, 4)
        .add(summarize(p90).mean, 4)
        .add(summarize(slowdown).mean, 4)
        .add(summarize(migrations).mean, 4);
  }
  emit_table(table, "e17_process");
  std::cout << "\nExpected shape: heavy-tailed lifetimes leave visibly more "
               "imbalance on the table when never migrating, and migration's "
               "absolute gain is larger there ([6]'s position); under "
               "exponential lifetimes there is less to win in the first "
               "place ([9]'s position). Same mean lifetime in both rows - "
               "only the tail differs.\n";
  return 0;
}
