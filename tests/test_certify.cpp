// Tests for the correctness-certificate subsystem (check/): the solution
// certifier, the differential harness, and the delta-debugging shrinker.
//
// The sweep tests run every roster algorithm over seeded random instances
// drawn from EVERY generator family (all size distributions x placement
// policies x cost models) and require a clean certificate each time - the
// same oracle tools/lrb_fuzz drives, so a regression here reproduces
// deterministically.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "algo/greedy.h"
#include "check/certify.h"
#include "check/differential.h"
#include "check/shrink.h"
#include "core/generators.h"
#include "core/lower_bounds.h"
#include "solver/registry.h"

namespace lrb {
namespace {

/// One deterministic generator configuration per (seed, family) pair,
/// cycling through every distribution, placement and cost model.
GeneratorOptions family_options(std::uint64_t index) {
  GeneratorOptions opt;
  opt.num_jobs = 1 + index % 17;
  opt.num_procs = static_cast<ProcId>(1 + index % 5);
  opt.min_size = index % 3 == 0 ? 0 : 1;
  opt.max_size = 1 + static_cast<Size>(index % 4) * 37;
  opt.size_dist = static_cast<SizeDistribution>(index % 5);
  opt.placement = static_cast<PlacementPolicy>((index / 5) % 5);
  opt.cost_model = static_cast<CostModel>((index / 25) % 5);
  opt.max_cost = 1 + static_cast<Cost>(index % 7);
  return opt;
}

TEST(Certify, RosterPassesOnRandomInstancesAcrossAllFamilies) {
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    const auto opt = family_options(trial);
    const auto inst = random_instance(opt, /*seed=*/1000 + trial);
    const auto k = static_cast<std::int64_t>(trial % (inst.num_jobs() + 2));
    for (const solver::BackendDescriptor& backend : solver::all_backends()) {
      if (backend.costed) continue;
      const auto result = solver::solve_serial(backend.id, inst, k);
      const auto certificate = certify_solution(
          inst, result, roster_certify_options(backend.id, inst, k, result));
      EXPECT_TRUE(certificate.ok())
          << "trial " << trial << " algorithm " << backend.name << "\n"
          << certificate.to_string();
    }
  }
}

TEST(Certify, EveryUnitCostBackendHasARatioCertificate) {
  // A certificate with only the universal checks could never catch a
  // backend that is valid but far from its theorem; every unit-cost backend
  // must state a ratio bound on a non-trivial instance, and meet it.
  GeneratorOptions opt;
  opt.num_jobs = 30;
  opt.num_procs = 4;
  opt.placement = PlacementPolicy::kHotspot;
  const auto inst = random_instance(opt, /*seed=*/7);
  const std::int64_t k = 5;
  for (const solver::BackendDescriptor& backend : solver::all_backends()) {
    if (backend.costed) continue;
    const auto result = solver::solve_serial(backend.id, inst, k);
    const auto options = roster_certify_options(backend.id, inst, k, result);
    ASSERT_TRUE(options.bound.has_value()) << backend.name;
    EXPECT_GT(options.bound->reference, 0) << backend.name;
    const auto certificate = certify_solution(inst, result, options);
    EXPECT_TRUE(certificate.ok())
        << backend.name << "\n" << certificate.to_string();
  }
}

TEST(Certify, GreedyIntegerApproximationBound) {
  // Theorem 1 as exact integer arithmetic: m * makespan <= (2m - 1) * LB
  // where LB = combined_lower_bound(k) <= OPT. No floating point anywhere.
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    const auto opt = family_options(trial);
    const auto inst = random_instance(opt, /*seed=*/5000 + trial);
    const auto k = static_cast<std::int64_t>(trial % (inst.num_jobs() + 2));
    const auto result = greedy_rebalance(inst, k);
    const auto m = static_cast<std::int64_t>(inst.num_procs);
    const auto lb = combined_lower_bound(inst, k);
    EXPECT_LE(m * result.makespan, (2 * m - 1) * lb)
        << "trial " << trial << " m=" << m << " makespan=" << result.makespan
        << " lb=" << lb;
  }
}

TEST(Certify, RecomputesEveryQuantityFromScratch) {
  const auto inst = make_instance({5, 3, 2}, {4, 1, 1}, {0, 0, 1}, 2);
  auto result = greedy_rebalance(inst, 1);
  ASSERT_TRUE(certify_solution(inst, result).ok());

  auto lying = result;
  lying.makespan -= 1;  // report a better makespan than the assignment has
  const auto cert = certify_solution(inst, lying);
  ASSERT_FALSE(cert.ok());
  EXPECT_EQ(cert.violations[0].kind, ViolationKind::kMakespanMismatch);

  auto wrong_moves = result;
  wrong_moves.moves += 1;
  const auto cert_moves = certify_solution(inst, wrong_moves);
  ASSERT_FALSE(cert_moves.ok());
  EXPECT_EQ(cert_moves.violations[0].kind, ViolationKind::kMovesMismatch);

  auto wrong_cost = result;
  wrong_cost.cost += 1;
  const auto cert_cost = certify_solution(inst, wrong_cost);
  ASSERT_FALSE(cert_cost.ok());
  EXPECT_EQ(cert_cost.violations[0].kind, ViolationKind::kCostMismatch);
}

TEST(Certify, FlagsBudgetViolations) {
  const auto inst = make_instance({5, 3, 2}, {4, 1, 1}, {0, 0, 1}, 2);
  // Move both jobs off processor 0: 2 moves, cost 4 + 1 = 5.
  const auto moved = finalize_result(inst, Assignment{1, 1, 1});

  CertifyOptions over_k;
  over_k.max_moves = 1;
  const auto cert_k = certify_solution(inst, moved, over_k);
  ASSERT_FALSE(cert_k.ok());
  EXPECT_EQ(cert_k.violations[0].kind, ViolationKind::kMoveBudget);

  CertifyOptions over_b;
  over_b.budget = 4;
  const auto cert_b = certify_solution(inst, moved, over_b);
  ASSERT_FALSE(cert_b.ok());
  EXPECT_EQ(cert_b.violations[0].kind, ViolationKind::kCostBudget);
}

TEST(Certify, FlagsStructurallyInvalidAssignments) {
  const auto inst = make_instance({5, 3}, {0, 1}, 2);
  RebalanceResult bogus;
  bogus.assignment = {0, 7};  // processor 7 does not exist
  const auto cert = certify_solution(inst, bogus);
  ASSERT_FALSE(cert.ok());
  EXPECT_EQ(cert.violations[0].kind, ViolationKind::kStructure);
}

TEST(Certify, FlagsSolutionsBeatingTheLowerBound) {
  // Under k = 0 the certified lower bound is the initial makespan. A
  // solution that moves a job anyway lands below that bound - evidence that
  // either the bound or the solution's claimed budget is broken, and the
  // certifier must say so (alongside the move-budget violation itself).
  const auto inst = make_instance({4, 4}, {0, 0}, 2);
  const auto moved = finalize_result(inst, Assignment{0, 1});
  CertifyOptions options;
  options.max_moves = 0;
  const auto cert = certify_solution(inst, moved, options);
  ASSERT_FALSE(cert.ok());
  const bool below = std::any_of(
      cert.violations.begin(), cert.violations.end(), [](const Violation& v) {
        return v.kind == ViolationKind::kBelowLowerBound;
      });
  const bool over_budget = std::any_of(
      cert.violations.begin(), cert.violations.end(), [](const Violation& v) {
        return v.kind == ViolationKind::kMoveBudget;
      });
  EXPECT_TRUE(below) << cert.to_string();
  EXPECT_TRUE(over_budget) << cert.to_string();
}

TEST(Certify, ApproxBoundCheckIsExactRational) {
  const auto inst = make_instance({3, 3, 3}, {0, 0, 0}, 3);
  const auto result = finalize_result(inst, Assignment{0, 0, 0});
  CertifyOptions options;
  // 9 <= (4/3) * 7 = 9.333... holds in rationals: 3 * 9 = 27 <= 4 * 7 = 28.
  options.bound = RatioBound{4, 3, 7, 0, "test reference"};
  EXPECT_TRUE(certify_solution(inst, result, options).ok());
  // 9 <= (4/3) * 6 = 8 fails: 27 > 24. A float comparison at tolerance 1
  // would wave this through; the rational check must not.
  options.bound = RatioBound{4, 3, 6, 0, "test reference"};
  const auto cert = certify_solution(inst, result, options);
  ASSERT_FALSE(cert.ok());
  EXPECT_EQ(cert.violations[0].kind, ViolationKind::kApproxBound);
}

// ---------------------------------------------------------------------------
// Differential harness + shrinker: the library-level version of what
// tools/lrb_fuzz exercises end to end.

/// GREEDY with Step 2 sabotaged: reinserts onto the MAX-loaded processor.
RebalanceResult broken_greedy(const Instance& instance, std::int64_t k) {
  Assignment assignment = instance.initial;
  auto load = instance.initial_loads();
  auto by_proc = instance.jobs_by_proc();
  for (auto& jobs : by_proc) {
    std::sort(jobs.begin(), jobs.end(), [&](JobId a, JobId b) {
      if (instance.sizes[a] != instance.sizes[b]) {
        return instance.sizes[a] > instance.sizes[b];
      }
      return a < b;
    });
  }
  std::vector<std::size_t> next(instance.num_procs, 0);
  std::vector<JobId> removed;
  for (std::int64_t step = 0; step < k; ++step) {
    ProcId heaviest = 0;
    for (ProcId p = 1; p < instance.num_procs; ++p) {
      if (load[p] > load[heaviest]) heaviest = p;
    }
    if (next[heaviest] >= by_proc[heaviest].size()) break;
    const JobId victim = by_proc[heaviest][next[heaviest]++];
    load[heaviest] -= instance.sizes[victim];
    removed.push_back(victim);
  }
  for (const JobId job : removed) {
    ProcId target = 0;
    for (ProcId p = 1; p < instance.num_procs; ++p) {
      if (load[p] > load[target]) target = p;
    }
    assignment[job] = target;
    load[target] += instance.sizes[job];
  }
  return finalize_result(instance, std::move(assignment));
}

TEST(Differential, CleanRosterProducesNoFindings) {
  GeneratorOptions opt;
  opt.num_jobs = 9;
  opt.num_procs = 3;
  opt.placement = PlacementPolicy::kHotspot;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const auto inst = random_instance(opt, seed);
    DifferentialOptions options;
    options.k = static_cast<std::int64_t>(seed % 6);
    options.budget = static_cast<std::int64_t>(seed % 9);
    const auto report = differential_check(inst, options);
    EXPECT_TRUE(report.ok()) << "seed " << seed << "\n" << report.to_string();
  }
}

TEST(Differential, CatchesTheBrokenRebalancerAndShrinksToTinyRepro) {
  // The fuzz driver's acceptance path as a unit test: the mutant must be
  // flagged within a few seeds and ddmin must cut the repro to <= 6 jobs.
  GeneratorOptions opt;
  opt.num_jobs = 10;
  opt.num_procs = 3;
  opt.placement = PlacementPolicy::kSingleProc;
  bool caught = false;
  for (std::uint64_t seed = 0; seed < 20 && !caught; ++seed) {
    const auto inst = random_instance(opt, seed);
    DifferentialOptions options;
    options.k = 4;
    options.run_cost_algorithms = false;
    options.extra.push_back(CheckedRebalancer{
        "broken-greedy", broken_greedy,
        [](const Instance& i, std::int64_t k, const RebalanceResult& r) {
          return roster_certify_options(solver::BackendId::kGreedy, i, k, r);
        }});
    const auto report = differential_check(inst, options);
    if (report.ok()) continue;
    caught = true;

    const auto signatures = report.signatures();
    const auto still_fails = [&](const Instance& candidate) {
      const auto r = differential_check(candidate, options);
      for (const auto& sig : r.signatures()) {
        for (const auto& wanted : signatures) {
          if (sig == wanted) return true;
        }
      }
      return false;
    };
    const auto minimized = shrink_instance(inst, still_fails);
    EXPECT_LE(minimized.instance.num_jobs(), 6u);
    EXPECT_TRUE(still_fails(minimized.instance));
  }
  EXPECT_TRUE(caught) << "broken greedy never produced a violation";
}

TEST(Shrink, PreservesThePredicateAndShrinksMonotonically) {
  // Predicate: instance has a job of size >= 50. The minimum witness is a
  // single job; ddmin must find something no bigger than the start.
  const auto inst = make_instance({60, 1, 2, 3, 55, 4, 5, 6},
                                  {0, 0, 1, 1, 2, 2, 0, 1}, 3);
  const auto has_big = [](const Instance& candidate) {
    return std::any_of(candidate.sizes.begin(), candidate.sizes.end(),
                       [](Size s) { return s >= 50; });
  };
  const auto shrunk = shrink_instance(inst, has_big);
  EXPECT_TRUE(has_big(shrunk.instance));
  EXPECT_LE(shrunk.instance.num_jobs(), 1u);
  EXPECT_LE(shrunk.instance.num_procs, 1u);
  // Value shrinking pulls the witness down to the predicate's edge.
  EXPECT_EQ(*std::max_element(shrunk.instance.sizes.begin(),
                              shrunk.instance.sizes.end()),
            50);
}

TEST(Shrink, RespectsTheEvaluationBudget) {
  GeneratorOptions opt;
  opt.num_jobs = 30;
  opt.num_procs = 4;
  const auto inst = random_instance(opt, 7);
  std::size_t calls = 0;
  ShrinkOptions options;
  options.max_evaluations = 10;
  const auto accept_all = [&](const Instance&) {
    ++calls;
    return true;
  };
  const auto shrunk = shrink_instance(inst, accept_all, options);
  EXPECT_LE(shrunk.evaluations, options.max_evaluations);
  EXPECT_LE(calls, options.max_evaluations);
}

}  // namespace
}  // namespace lrb
