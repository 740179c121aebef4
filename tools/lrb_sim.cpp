// lrb_simulate: run the web-farm rebalancing simulator from the command line and
// emit the per-step metric series (CSV on stdout, summary on stderr).
//
//   lrb_simulate --policy m-partition --sites 300 --servers 12 --steps 400
//                --every 5 --k 12 --seed 7 > series.csv
//
// Flags (defaults in parentheses):
//   --policy NAME (m-partition)  none, or a non-costed solver registry
//                          backend by name or alias (an unknown name gets
//                          the registry list)
//   --byte-budget B        use cost-PARTITION with B bytes per round instead
//   --sites N (300)        --servers M (12)     --steps T (400)
//   --every R (5)          --k K (12)           --seed S (1)
//   --flash-prob P (0.003) --drain-prob P (0)   --churn-prob P (0)
//   --migrations-per-step G (0 = instantaneous)
//
// Exit status is 2 for an out-of-range flag value (--sites and --steps in
// [1, 10^7]; --servers in [1, 10^5]; --every, --k, --migrations-per-step,
// --byte-budget and --seed >= 0), checked before anything runs.

#include <iostream>
#include <limits>
#include <string>

#include "sim/policies.h"
#include "sim/simulator.h"
#include "solver/registry.h"
#include "util/flags.h"
#include "util/version.h"
#include "util/table.h"

namespace {

int fail(const std::string& message) {
  std::cerr << "lrb_simulate: " << message << "\n";
  return 1;
}

/// A flag value out of range: exit 2, before anything runs.
int bad_flag(const std::string& message) {
  std::cerr << "lrb_simulate: " << message << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lrb;
  using namespace lrb::sim;
  const Flags flags(argc, argv);
  if (flags.has("version")) {
    print_version("lrb_simulate");
    return 0;
  }

  // The first bad flag is reported once everything is read.
  std::string flag_error;
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  SimOptions options;
  options.workload.num_sites = static_cast<std::size_t>(
      flags.get_int_in("sites", 300, 1, 10'000'000, &flag_error));
  options.workload.flash_prob = flags.get_double("flash-prob", 0.003);
  options.workload.churn_prob = flags.get_double("churn-prob", 0.0);
  options.num_servers = static_cast<ProcId>(
      flags.get_int_in("servers", 12, 1, 100'000, &flag_error));
  options.steps = static_cast<std::size_t>(
      flags.get_int_in("steps", 400, 1, 10'000'000, &flag_error));
  options.rebalance_every = static_cast<std::size_t>(
      flags.get_int_in("every", 5, 0, kMax, &flag_error));
  options.move_budget = flags.get_int_in("k", 12, 0, kInfCost, &flag_error);
  options.drain_prob = flags.get_double("drain-prob", 0.0);
  options.migrations_per_step = static_cast<std::size_t>(
      flags.get_int_in("migrations-per-step", 0, 0, kMax, &flag_error));
  options.seed = static_cast<std::uint64_t>(
      flags.get_int_in("seed", 1, 0, kMax, &flag_error));
  const Cost byte_budget =
      flags.get_int_in("byte-budget", 5000, 0, kInfCost, &flag_error);
  if (!flag_error.empty()) return bad_flag(flag_error);

  Policy policy;
  std::string policy_name = flags.get_or("policy", "m-partition");
  if (flags.has("byte-budget")) {
    options.byte_costs = true;
    policy = cost_partition_policy(byte_budget);
    policy_name = "cost-partition(" + std::to_string(byte_budget) + "B)";
  } else {
    policy = unit_policy(policy_name);
    if (!policy) {
      return fail("unknown --policy '" + policy_name +
                  "' (expected none or a non-costed backend of " +
                  solver::backend_list() + ")");
    }
  }

  Simulator simulator(options, policy);
  const auto result = simulator.run();

  Table series({"step", "makespan", "ideal", "imbalance", "moves",
                "forced_moves", "bytes_moved", "flashes"});
  for (const auto& step : result.series) {
    series.row()
        .add(static_cast<std::uint64_t>(step.step))
        .add(step.makespan)
        .add(step.ideal)
        .add(step.imbalance, 6)
        .add(step.moves)
        .add(step.forced_moves)
        .add(step.bytes_moved)
        .add(static_cast<std::uint64_t>(step.flashes));
  }
  series.print_csv(std::cout);

  std::cerr << "policy:          " << policy_name << "\n"
            << "mean imbalance:  " << result.mean_imbalance << "\n"
            << "p90 imbalance:   " << result.imbalance.p90 << "\n"
            << "max imbalance:   " << result.imbalance.max << "\n"
            << "policy moves:    " << result.total_moves << "\n"
            << "forced moves:    " << result.total_forced_moves << "\n"
            << "bytes moved:     " << result.total_bytes << "\n";
  return 0;
}
