// Prebuilt simulator policies. The unit-cost roster is the solver
// registry's non-costed backends plus the "none" baseline; the byte-budget
// policies below require SimOptions::byte_costs = true so the per-round
// Instance carries site content sizes as move costs - the "minimize
// migrated bytes" regime of the paper's §3.2.

#pragma once

#include <string>
#include <vector>

#include "core/types.h"
#include "sim/simulator.h"
#include "solver/registry.h"

namespace lrb::sim {

struct NamedPolicy {
  std::string name;
  Policy run;
  /// The registry backend behind `run`; nullptr for the "none" baseline.
  const solver::BackendDescriptor* backend = nullptr;
};

/// The unit-cost roster: "none" (never moves) followed by every non-costed
/// registry backend in BackendId order, adapted to the Policy signature.
[[nodiscard]] std::vector<NamedPolicy> unit_policies();

/// §3.2 cost-PARTITION with a per-round byte budget (ignores the k the
/// simulator passes; the budget is bytes).
[[nodiscard]] Policy cost_partition_policy(Cost byte_budget_per_round);

/// The size-per-cost greedy under the same per-round byte budget.
[[nodiscard]] Policy cost_greedy_policy(Cost byte_budget_per_round);

/// Looks a unit policy up by name or registry alias ("lpt-full", "mp-ls",
/// "bestof", ...); an empty Policy for unknown or costed names.
[[nodiscard]] Policy unit_policy(const std::string& name);

}  // namespace lrb::sim
