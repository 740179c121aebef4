// Parameterized property sweeps: every (workload family x budget) cell
// re-verifies the paper's guarantees against exact ground truth. These are
// the library's contract tests - if an algorithm change breaks a theorem,
// some cell here fails with the offending seed in its name.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "algo/cost_greedy.h"
#include "algo/cost_partition.h"
#include "algo/exact.h"
#include "algo/greedy.h"
#include "algo/local_search.h"
#include "algo/m_partition.h"
#include "algo/ptas.h"
#include "algo/unit_exact.h"
#include "core/generators.h"
#include "core/io.h"
#include "core/lower_bounds.h"
#include "lp/gap.h"
#include "sim/policies.h"
#include "solver/registry.h"

namespace lrb {
namespace {

struct FamilySpec {
  const char* name;
  SizeDistribution dist;
  PlacementPolicy placement;
};

constexpr FamilySpec kFamilies[] = {
    {"uniform_random", SizeDistribution::kUniform, PlacementPolicy::kRandom},
    {"uniform_hotspot", SizeDistribution::kUniform, PlacementPolicy::kHotspot},
    {"uniform_pile", SizeDistribution::kUniform, PlacementPolicy::kSingleProc},
    {"zipf_hotspot", SizeDistribution::kZipf, PlacementPolicy::kHotspot},
    {"bimodal_random", SizeDistribution::kBimodal, PlacementPolicy::kRandom},
    {"unit_hotspot", SizeDistribution::kUnit, PlacementPolicy::kHotspot},
};

GeneratorOptions options_for(const FamilySpec& family) {
  GeneratorOptions opt;
  opt.num_jobs = 10;
  opt.num_procs = 3;
  opt.max_size = 23;
  opt.size_dist = family.dist;
  opt.placement = family.placement;
  return opt;
}

// ----------------------------------------------------- unit-cost guarantees

using UnitParam = std::tuple<int, std::int64_t>;

class UnitCostProperties : public ::testing::TestWithParam<UnitParam> {
 protected:
  [[nodiscard]] const FamilySpec& family() const {
    return kFamilies[static_cast<std::size_t>(std::get<0>(GetParam()))];
  }
  [[nodiscard]] std::int64_t k() const { return std::get<1>(GetParam()); }
};

TEST_P(UnitCostProperties, TheoremGuaranteesHoldAgainstExact) {
  const auto opt = options_for(family());
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const auto inst = random_instance(opt, seed);
    ExactOptions exact_opt;
    exact_opt.max_moves = k();
    const auto exact = exact_rebalance(inst, exact_opt);
    ASSERT_TRUE(exact.proven_optimal) << "seed=" << seed;
    const auto opt_value = static_cast<double>(exact.best.makespan);

    // Lower bounds never exceed the optimum.
    EXPECT_LE(combined_lower_bound(inst, k()), exact.best.makespan)
        << "seed=" << seed;

    // GREEDY: Theorem 1.
    const auto greedy = greedy_rebalance(inst, k());
    EXPECT_LE(greedy.moves, k()) << "seed=" << seed;
    EXPECT_LE(static_cast<double>(greedy.makespan),
              (2.0 - 1.0 / 3.0) * opt_value + 1e-9)
        << "seed=" << seed;

    // M-PARTITION: Theorem 3 + Lemma 6.
    MPartitionStats stats;
    const auto mp = m_partition_rebalance(inst, k(), &stats);
    EXPECT_LE(mp.moves, k()) << "seed=" << seed;
    EXPECT_LE(static_cast<double>(mp.makespan), 1.5 * opt_value + 1e-9)
        << "seed=" << seed;
    EXPECT_LE(stats.accepted_threshold, exact.best.makespan) << "seed=" << seed;

    // best-of dominates both.
    const auto best =
        solver::solve_serial(solver::BackendId::kBestOf, inst, k());
    EXPECT_LE(best.makespan, std::min(greedy.makespan, mp.makespan))
        << "seed=" << seed;

    // Local search keeps the guarantee and the budget.
    const auto polished = m_partition_ls_rebalance(inst, k());
    EXPECT_LE(polished.makespan, mp.makespan) << "seed=" << seed;
    EXPECT_LE(polished.moves, k()) << "seed=" << seed;
    EXPECT_GE(polished.makespan, exact.best.makespan) << "seed=" << seed;

    // Equal-size exact agrees with B&B whenever it applies.
    if (const auto fast = equal_size_exact_rebalance(inst, k())) {
      EXPECT_EQ(fast->makespan, exact.best.makespan) << "seed=" << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, UnitCostProperties,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Values<std::int64_t>(0, 1, 2, 4, 7)),
    [](const ::testing::TestParamInfo<UnitParam>& param_info) {
      return std::string(
                 kFamilies[static_cast<std::size_t>(
                               std::get<0>(param_info.param))]
                     .name) +
             "_k" + std::to_string(std::get<1>(param_info.param));
    });

// ---------------------------------------------------- budgeted guarantees

using BudgetParam = std::tuple<CostModel, Cost>;

std::string model_name(CostModel model) {
  switch (model) {
    case CostModel::kUnit: return "unit";
    case CostModel::kUniform: return "uniform";
    case CostModel::kProportional: return "proportional";
    case CostModel::kInverse: return "inverse";
    case CostModel::kTwoValued: return "two_valued";
  }
  return "unknown";
}

class BudgetProperties : public ::testing::TestWithParam<BudgetParam> {};

TEST_P(BudgetProperties, CostAwareAlgorithmsHonourBudgetsAndBounds) {
  const auto [model, budget] = GetParam();
  GeneratorOptions opt;
  opt.num_jobs = 9;
  opt.num_procs = 3;
  opt.max_size = 19;
  opt.placement = PlacementPolicy::kHotspot;
  opt.cost_model = model;
  opt.max_cost = 9;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto inst = random_instance(opt, seed);
    ExactOptions exact_opt;
    exact_opt.budget = budget;
    const auto exact = exact_rebalance(inst, exact_opt);
    ASSERT_TRUE(exact.proven_optimal) << "seed=" << seed;
    const auto opt_value = static_cast<double>(exact.best.makespan);

    CostPartitionOptions cp;
    cp.budget = budget;
    const auto partition = cost_partition_rebalance(inst, cp);
    EXPECT_LE(partition.cost, budget) << "seed=" << seed;
    EXPECT_LE(static_cast<double>(partition.makespan),
              1.5 * 1.05 * 1.02 * opt_value + 1e-9)
        << "seed=" << seed;

    const auto st = st_rebalance(inst, budget);
    EXPECT_LE(st.cost, budget) << "seed=" << seed;
    EXPECT_LE(static_cast<double>(st.makespan), 2.0 * opt_value + 1e-9)
        << "seed=" << seed;

    const auto greedy = cost_greedy_rebalance(inst, budget);
    EXPECT_LE(greedy.cost, budget) << "seed=" << seed;
    EXPECT_LE(greedy.makespan, inst.initial_makespan()) << "seed=" << seed;

    PtasOptions ptas_opt;
    ptas_opt.budget = budget;
    ptas_opt.eps = 1.0;
    const auto ptas = ptas_rebalance(inst, ptas_opt);
    ASSERT_TRUE(ptas.success) << "seed=" << seed;
    EXPECT_LE(ptas.result.cost, budget) << "seed=" << seed;
    EXPECT_LE(static_cast<double>(ptas.result.makespan),
              2.0 * opt_value + 1.0)
        << "seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BudgetProperties,
    ::testing::Combine(::testing::Values(CostModel::kUnit, CostModel::kUniform,
                                         CostModel::kProportional,
                                         CostModel::kInverse,
                                         CostModel::kTwoValued),
                       ::testing::Values<Cost>(0, 4, 12, 40)),
    [](const ::testing::TestParamInfo<BudgetParam>& param_info) {
      return model_name(std::get<0>(param_info.param)) + "_B" +
             std::to_string(std::get<1>(param_info.param));
    });

// -------------------------------------------------- determinism contracts

// The unit-cost roster: the "none" baseline, then every non-costed registry
// backend in BackendId order (sim::unit_policies()).
std::string roster_name(int index) {
  return sim::unit_policies()[static_cast<std::size_t>(index)].name;
}

class Determinism : public ::testing::TestWithParam<int> {};

TEST_P(Determinism, AlgorithmsAreBitReproducible) {
  // Every rebalancer must produce an identical assignment on repeated runs
  // and on an instance that round-tripped through the text format - the
  // property that makes EXPERIMENTS.md regenerable.
  const auto roster = sim::unit_policies();
  const auto& algo = roster[static_cast<std::size_t>(GetParam())];
  GeneratorOptions opt;
  opt.num_jobs = 40;
  opt.num_procs = 6;
  opt.placement = PlacementPolicy::kHotspot;
  opt.cost_model = CostModel::kUniform;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto inst = random_instance(opt, seed);
    for (std::int64_t k : {0, 3, 11}) {
      const auto first = algo.run(inst, k);
      const auto second = algo.run(inst, k);
      EXPECT_EQ(first.assignment, second.assignment)
          << algo.name << " seed=" << seed << " k=" << k;
      // Round-trip the instance through text serialization.
      const auto parsed = instance_from_string(instance_to_string(inst));
      ASSERT_TRUE(parsed.has_value());
      const auto replay = algo.run(*parsed, k);
      EXPECT_EQ(first.assignment, replay.assignment)
          << algo.name << " seed=" << seed << " k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, Determinism,
                         ::testing::Range(0, static_cast<int>(
                                                 sim::unit_policies().size())),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           std::string name = roster_name(param_info.param);
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace lrb

namespace lrb {
namespace {

// ------------------------------------------------------------ fuzz sweeps

// Extreme-shape differential fuzzing: for every generated instance, every
// algorithm must produce a structurally valid assignment that honours its
// budget and never beats the certified lower bound. Catches silent
// arithmetic or bookkeeping bugs that the targeted tests might miss.
class FuzzShapes : public ::testing::TestWithParam<int> {};

Instance fuzz_instance(Rng& rng) {
  const auto n = static_cast<std::size_t>(rng.uniform_int(0, 24));
  const auto m = static_cast<ProcId>(rng.uniform_int(1, 6));
  std::vector<Size> sizes(n);
  std::vector<Cost> costs(n);
  std::vector<ProcId> initial(n);
  for (std::size_t j = 0; j < n; ++j) {
    switch (rng.uniform_int(0, 4)) {
      case 0: sizes[j] = 0; break;                                // zero
      case 1: sizes[j] = rng.uniform_int(1, 3); break;            // tiny
      case 2: sizes[j] = rng.uniform_int(1, 1000); break;         // medium
      case 3: sizes[j] = (Size{1} << 32) + rng.uniform_int(0, 9); break;
      default: sizes[j] = rng.uniform_int(1, 10); break;          // duplicates
    }
    costs[j] = rng.uniform_int(0, 100);
    initial[j] = static_cast<ProcId>(rng.uniform_int(0, m - 1));
  }
  return make_instance(std::move(sizes), std::move(costs), std::move(initial),
                       m);
}

TEST_P(FuzzShapes, UniversalInvariantsHold) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  for (int trial = 0; trial < 40; ++trial) {
    const auto inst = fuzz_instance(rng);
    const std::int64_t k = rng.uniform_int(0, 30);
    const Size lb = combined_lower_bound(inst, k);

    for (const auto& algo : sim::unit_policies()) {
      const auto r = algo.run(inst, k);
      ASSERT_FALSE(validate(inst, r.assignment).has_value())
          << algo.name << " trial=" << trial;
      if (algo.backend == nullptr || algo.backend->respects_k) {
        EXPECT_LE(r.moves, k) << algo.name << " trial=" << trial;
        EXPECT_GE(r.makespan, lb) << algo.name << " trial=" << trial;
      }
      EXPECT_EQ(r.makespan, makespan(inst, r.assignment)) << algo.name;
      EXPECT_EQ(r.moves, moves_used(inst, r.assignment)) << algo.name;
      EXPECT_EQ(r.cost, relocation_cost(inst, r.assignment)) << algo.name;
    }

    const Cost budget = rng.uniform_int(0, 200);
    CostPartitionOptions cp;
    cp.budget = budget;
    const auto cost_result = cost_partition_rebalance(inst, cp);
    EXPECT_LE(cost_result.cost, budget) << "trial=" << trial;
    const auto greedy_result = cost_greedy_rebalance(inst, budget);
    EXPECT_LE(greedy_result.cost, budget) << "trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FuzzShapes, ::testing::Range(0, 6));

}  // namespace
}  // namespace lrb

#include "algo/two_proc_exact.h"

namespace lrb {
namespace {

// Larger-n guarantee checks against TRUE optima, enabled by the m = 2
// subset-sum DP (branch-and-bound cannot reach this size).
class TwoProcGuarantees : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(TwoProcGuarantees, RatiosHoldAtNFifty) {
  const std::int64_t k = GetParam();
  GeneratorOptions opt;
  opt.num_jobs = 50;
  opt.num_procs = 2;
  opt.max_size = 150;
  opt.placement = PlacementPolicy::kHotspot;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto inst = random_instance(opt, seed);
    const auto exact = two_proc_exact_rebalance(inst, k);
    ASSERT_TRUE(exact.has_value()) << "seed=" << seed;
    const auto opt_value = static_cast<double>(exact->makespan);
    const auto mp = m_partition_rebalance(inst, k);
    EXPECT_LE(static_cast<double>(mp.makespan), 1.5 * opt_value + 1e-9)
        << "seed=" << seed;
    EXPECT_LE(mp.moves, k);
    const auto greedy = greedy_rebalance(inst, k);
    EXPECT_LE(static_cast<double>(greedy.makespan), 1.5 * opt_value + 1e-9)
        << "seed=" << seed;  // 2 - 1/m = 1.5 for m = 2
    const auto polished = m_partition_ls_rebalance(inst, k);
    EXPECT_GE(polished.makespan, exact->makespan) << "seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TwoProcGuarantees,
                         ::testing::Values<std::int64_t>(1, 4, 10, 25),
                         [](const ::testing::TestParamInfo<std::int64_t>& p) {
                           return "k" + std::to_string(p.param);
                         });

}  // namespace
}  // namespace lrb
