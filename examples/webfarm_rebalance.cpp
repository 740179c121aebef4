// The paper's motivating scenario end to end: a web farm whose sites'
// popularity drifts (with occasional flash crowds) is periodically
// rebalanced under a bounded migration budget.
//
//   $ ./examples/webfarm_rebalance
//
// Compares policies over a 400-step horizon: doing nothing, GREEDY,
// M-PARTITION, best-of, an (unrealistic) full LPT rebalance that ignores
// the migration budget, and M-PARTITION + local search. The punchline the paper's introduction promises:
// a handful of moves per round keeps the farm near-balanced at a tiny
// fraction of the migration traffic of full rebalancing.

#include <iostream>

#include "sim/policies.h"
#include "sim/simulator.h"
#include "util/table.h"

int main() {
  using namespace lrb;
  using namespace lrb::sim;

  SimOptions options;
  options.workload.num_sites = 400;
  options.workload.max_initial_load = 2000;
  options.workload.flash_prob = 0.004;
  options.workload.flash_magnitude = 15.0;
  options.num_servers = 16;
  options.steps = 400;
  options.rebalance_every = 5;
  options.move_budget = 12;
  options.seed = 7;

  std::cout << "Web-farm rebalancing: " << options.workload.num_sites
            << " sites on " << options.num_servers << " servers, "
            << options.steps << " steps, k = " << options.move_budget
            << " migrations every " << options.rebalance_every << " steps\n\n";

  Table table({"policy", "mean imb", "p90 imb", "max imb", "total moves",
               "GB moved"});
  for (const auto& policy : unit_policies()) {
    Simulator simulator(options, policy.run);
    const auto result = simulator.run();
    table.row()
        .add(policy.name)
        .add(result.imbalance.mean, 3)
        .add(result.imbalance.p90, 3)
        .add(result.imbalance.max, 3)
        .add(result.total_moves)
        .add(static_cast<double>(result.total_bytes) / 1e6, 3);
  }
  table.print(std::cout);

  // A short excerpt of the M-PARTITION time series around a flash crowd.
  Simulator simulator(options, unit_policy("m-partition"));
  const auto result = simulator.run();
  std::size_t flash_step = 0;
  for (const auto& step : result.series) {
    if (step.flashes > 0) {
      flash_step = step.step;
      break;
    }
  }
  const std::size_t from = flash_step > 3 ? flash_step - 3 : 0;
  std::cout << "\nM-PARTITION series around the first flash crowd (step "
            << flash_step << "):\n";
  Table series({"step", "makespan", "ideal", "imbalance", "moves", "flashes"});
  for (std::size_t s = from; s < std::min(from + 12, result.series.size());
       ++s) {
    const auto& step = result.series[s];
    series.row()
        .add(static_cast<std::uint64_t>(step.step))
        .add(step.makespan)
        .add(step.ideal)
        .add(step.imbalance, 3)
        .add(step.moves)
        .add(static_cast<std::uint64_t>(step.flashes));
  }
  series.print(std::cout);
  return 0;
}
