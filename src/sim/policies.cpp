#include "sim/policies.h"

#include "algo/cost_greedy.h"
#include "algo/cost_partition.h"

namespace lrb::sim {

std::vector<NamedPolicy> unit_policies() {
  std::vector<NamedPolicy> out;
  out.push_back({"none", [](const Instance& instance, std::int64_t) {
                   return no_move_result(instance);
                 }});
  for (const solver::BackendDescriptor& backend : solver::all_backends()) {
    if (backend.costed) continue;
    const solver::BackendId id = backend.id;
    out.push_back({backend.name,
                   [id](const Instance& instance, std::int64_t k) {
                     return solver::solve_serial(id, instance, k);
                   },
                   &backend});
  }
  return out;
}

Policy cost_partition_policy(Cost byte_budget_per_round) {
  return [byte_budget_per_round](const Instance& instance, std::int64_t) {
    CostPartitionOptions options;
    options.budget = byte_budget_per_round;
    return cost_partition_rebalance(instance, options);
  };
}

Policy cost_greedy_policy(Cost byte_budget_per_round) {
  return [byte_budget_per_round](const Instance& instance, std::int64_t) {
    return cost_greedy_rebalance(instance, byte_budget_per_round);
  };
}

Policy unit_policy(const std::string& name) {
  const solver::BackendDescriptor* backend = solver::find_backend(name);
  for (auto& policy : unit_policies()) {
    const bool alias = backend != nullptr && policy.backend == backend;
    if (policy.name == name || alias) return policy.run;
  }
  return {};
}

}  // namespace lrb::sim
