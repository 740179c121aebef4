// Quickstart: build a load-rebalancing instance, run the paper's algorithms,
// and inspect the guarantees.
//
//   $ ./examples/quickstart
//
// A cluster of 8 processors drifts out of balance; we may relocate at most
// k = 6 jobs. GREEDY (§2) gives 2 - 1/m, M-PARTITION (§3) gives 1.5, and the
// certified lower bound brackets the unknown optimum from below.

#include <cstdint>
#include <iostream>

#include "algo/greedy.h"
#include "core/generators.h"
#include "core/lower_bounds.h"
#include "solver/registry.h"
#include "util/table.h"

namespace {

const char* guarantee(lrb::solver::BackendId backend) {
  using lrb::solver::BackendId;
  switch (backend) {
    case BackendId::kGreedy: return "2 - 1/m approx";
    case BackendId::kMPartition: return "1.5 approx (Thm 3)";
    case BackendId::kBestOf: return "1.5 approx";
    case BackendId::kLocalSearch: return "1.5 approx";
    default: return "-";
  }
}

}  // namespace

int main() {
  using namespace lrb;

  // A hotspot workload: 120 jobs, most of the mass on 2 of 8 processors.
  GeneratorOptions gen;
  gen.num_jobs = 120;
  gen.num_procs = 8;
  gen.min_size = 5;
  gen.max_size = 200;
  gen.placement = PlacementPolicy::kHotspot;
  gen.hotspot_fraction = 0.25;
  gen.hotspot_mass = 0.75;
  const Instance instance = random_instance(gen, /*seed=*/2003);

  const std::int64_t k = 6;
  std::cout << "Load rebalancing quickstart\n"
            << "  jobs: " << instance.num_jobs()
            << ", processors: " << instance.num_procs << ", move budget k = "
            << k << "\n"
            << "  initial makespan: " << instance.initial_makespan()
            << "  (certified lower bound for k moves: "
            << combined_lower_bound(instance, k) << ")\n\n";

  Table table({"algorithm", "makespan", "moves", "vs initial", "guarantee"});
  const Size initial = instance.initial_makespan();
  for (const solver::BackendDescriptor& backend : solver::all_backends()) {
    // The PTAS is costed; LPT ignores the budget (see webfarm_rebalance).
    if (backend.costed || !backend.respects_k) continue;
    const auto result = solver::solve_serial(backend.id, instance, k);
    table.row()
        .add(backend.name)
        .add(result.makespan)
        .add(result.moves)
        .add(static_cast<double>(result.makespan) /
                 static_cast<double>(initial),
             3)
        .add(guarantee(backend.id));
  }
  table.print(std::cout);

  // Lemma 1 in action: GREEDY's step-1 residual is a valid lower bound.
  GreedyStats stats;
  (void)greedy_rebalance(instance, k, GreedyOrder::kLargestFirst, &stats);
  std::cout << "\nLemma 1 lower bound (max load after the k best removals): "
            << stats.g1 << "\n";
  std::cout << "Any k-move schedule has makespan >= " << stats.g1
            << "; M-PARTITION is guaranteed <= 1.5x the optimum.\n";
  return 0;
}
