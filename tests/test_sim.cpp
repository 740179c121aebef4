// Tests for the web-farm simulation substrate: workload dynamics,
// deterministic replay, and the end-to-end claim the paper's introduction
// makes - bounded-move rebalancing keeps a drifting cluster close to
// balanced at a fraction of full rebalancing's migration traffic.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "sim/policies.h"
#include "sim/simulator.h"
#include "sim/workload.h"
#include "solver/registry.h"

namespace lrb::sim {
namespace {

WorkloadOptions small_workload() {
  WorkloadOptions w;
  w.num_sites = 60;
  w.max_initial_load = 500;
  w.flash_prob = 0.01;
  return w;
}

TEST(Workload, DeterministicInSeed) {
  Workload a(small_workload(), 42);
  Workload b(small_workload(), 42);
  for (int i = 0; i < 50; ++i) {
    a.step();
    b.step();
  }
  EXPECT_EQ(a.loads(), b.loads());
  EXPECT_EQ(a.bytes(), b.bytes());
}

TEST(Workload, LoadsStayPositiveAndBounded) {
  Workload w(small_workload(), 7);
  for (int i = 0; i < 200; ++i) {
    w.step();
    for (Size l : w.loads()) {
      EXPECT_GE(l, 1);
      EXPECT_LE(l, 500 * 100 * 13);  // drift cap * flash magnitude slack
    }
  }
}

TEST(Workload, FlashCrowdsOccurAndDecay) {
  auto opts = small_workload();
  opts.flash_prob = 0.05;
  opts.flash_duration = 3;
  Workload w(opts, 3);
  std::size_t seen = 0;
  for (int i = 0; i < 100; ++i) {
    w.step();
    seen = std::max(seen, w.active_flashes());
  }
  EXPECT_GT(seen, 0u);
  // With prob 0 flashes never fire.
  opts.flash_prob = 0.0;
  Workload quiet(opts, 3);
  for (int i = 0; i < 100; ++i) {
    quiet.step();
    EXPECT_EQ(quiet.active_flashes(), 0u);
  }
}

TEST(Workload, ZipfInitialLoadsAreSkewed) {
  auto opts = small_workload();
  opts.num_sites = 100;
  Workload w(opts, 11);
  auto loads = w.loads();
  std::sort(loads.begin(), loads.end(), std::greater<>());
  // Head site carries much more than the median site.
  EXPECT_GT(loads[0], 5 * std::max<Size>(1, loads[50]));
}

TEST(InitialPlacement, IsLptBalanced) {
  Workload w(small_workload(), 5);
  const auto placement = initial_placement(w, 6);
  std::vector<Size> server_load(6, 0);
  for (std::size_t site = 0; site < placement.size(); ++site) {
    ASSERT_LT(placement[site], 6u);
    server_load[placement[site]] += w.loads()[site];
  }
  const Size mx = *std::max_element(server_load.begin(), server_load.end());
  const Size mn = *std::min_element(server_load.begin(), server_load.end());
  const Size biggest_site =
      *std::max_element(w.loads().begin(), w.loads().end());
  EXPECT_LE(mx - mn, biggest_site);
}

SimOptions base_sim(std::uint64_t seed) {
  SimOptions opt;
  opt.workload = small_workload();
  opt.num_servers = 5;
  opt.steps = 80;
  opt.rebalance_every = 4;
  opt.move_budget = 6;
  opt.seed = seed;
  return opt;
}

Policy policy_by_name(const std::string& name) {
  Policy policy = unit_policy(name);
  if (!policy) ADD_FAILURE() << "unknown policy " << name;
  return policy;
}

TEST(Simulator, DeterministicReplay) {
  Simulator a(base_sim(9), policy_by_name("m-partition"));
  Simulator b(base_sim(9), policy_by_name("m-partition"));
  const auto ra = a.run();
  const auto rb = b.run();
  ASSERT_EQ(ra.series.size(), rb.series.size());
  for (std::size_t i = 0; i < ra.series.size(); ++i) {
    EXPECT_EQ(ra.series[i].makespan, rb.series[i].makespan);
    EXPECT_EQ(ra.series[i].moves, rb.series[i].moves);
  }
}

TEST(Simulator, MoveBudgetRespectedEveryRound) {
  const auto opt = base_sim(13);
  for (const char* name : {"greedy", "m-partition", "best-of"}) {
    Simulator simulator(opt, policy_by_name(name));
    const auto result = simulator.run();
    for (const auto& step : result.series) {
      EXPECT_LE(step.moves, opt.move_budget) << name << " step " << step.step;
    }
  }
}

TEST(Simulator, NoPolicyMeansNoMoves) {
  Simulator simulator(base_sim(17), policy_by_name("none"));
  const auto result = simulator.run();
  EXPECT_EQ(result.total_moves, 0);
  EXPECT_EQ(result.total_bytes, 0);
}

TEST(Simulator, RebalancingBeatsDoingNothing) {
  // The central motivating claim: with drift + flash crowds, bounded-move
  // rebalancing holds mean imbalance well below the no-op policy.
  const auto opt = base_sim(21);
  Simulator idle(opt, policy_by_name("none"));
  Simulator active(opt, policy_by_name("best-of"));
  const auto idle_result = idle.run();
  const auto active_result = active.run();
  EXPECT_LT(active_result.mean_imbalance, idle_result.mean_imbalance);
}

TEST(Simulator, BoundedMovesMigrateFarLessThanFullRebalance) {
  const auto opt = base_sim(25);
  Simulator bounded(opt, policy_by_name("m-partition"));
  Simulator full(opt, policy_by_name("lpt-full"));
  const auto bounded_result = bounded.run();
  const auto full_result = full.run();
  EXPECT_LT(bounded_result.total_moves, full_result.total_moves / 2);
  // ...while staying in the same imbalance ballpark (within 2x).
  EXPECT_LT(bounded_result.mean_imbalance,
            2.0 * full_result.mean_imbalance + 0.5);
}

TEST(Simulator, MetricsSeriesShapes) {
  const auto opt = base_sim(29);
  Simulator simulator(opt, policy_by_name("greedy"));
  const auto result = simulator.run();
  ASSERT_EQ(result.series.size(), opt.steps);
  for (const auto& step : result.series) {
    EXPECT_GE(step.makespan, step.ideal);
    EXPECT_GE(step.imbalance, 1.0 - 1e-12);
  }
  EXPECT_GE(result.imbalance.mean, 1.0);
  EXPECT_GT(result.makespan.max, 0.0);
}

}  // namespace
}  // namespace lrb::sim

namespace lrb::sim {
namespace {

TEST(Simulator, DrainEventsForceMigrations) {
  auto opt = base_sim(33);
  opt.drain_prob = 0.15;
  Simulator simulator(opt, policy_by_name("none"));
  const auto result = simulator.run();
  // The "none" policy makes no voluntary moves, so every migration observed
  // is drain-forced.
  EXPECT_EQ(result.total_moves, 0);
  EXPECT_GT(result.total_forced_moves, 0);
  std::int64_t from_series = 0;
  for (const auto& step : result.series) from_series += step.forced_moves;
  EXPECT_EQ(from_series, result.total_forced_moves);
}

TEST(Simulator, DrainsAreDeterministicAndOffByDefault) {
  auto opt = base_sim(35);
  Simulator quiet(opt, policy_by_name("none"));
  EXPECT_EQ(quiet.run().total_forced_moves, 0);

  opt.drain_prob = 0.2;
  Simulator a(opt, policy_by_name("greedy"));
  Simulator b(opt, policy_by_name("greedy"));
  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_EQ(ra.total_forced_moves, rb.total_forced_moves);
  EXPECT_EQ(ra.total_moves, rb.total_moves);
}

TEST(Simulator, RebalancerRecoversFromDrains) {
  // With drains, an active policy should still hold imbalance below the
  // idle policy (it heals the scars the drains leave behind).
  auto opt = base_sim(37);
  opt.drain_prob = 0.1;
  opt.move_budget = 10;
  Simulator idle(opt, policy_by_name("none"));
  Simulator active(opt, policy_by_name("best-of"));
  EXPECT_LT(active.run().mean_imbalance, idle.run().mean_imbalance);
}

}  // namespace
}  // namespace lrb::sim

namespace lrb::sim {
namespace {

TEST(Workload, ChurnReplacesSites) {
  auto opts = small_workload();
  opts.churn_prob = 0.5;
  Workload w(opts, 19);
  std::size_t provisioned_total = 0;
  for (int i = 0; i < 100; ++i) {
    w.step();
    provisioned_total += w.just_provisioned().size();
    EXPECT_EQ(w.num_sites(), opts.num_sites);  // slot count is stable
    for (Size l : w.loads()) EXPECT_GE(l, 1);
  }
  EXPECT_EQ(provisioned_total, w.churn_events());
  EXPECT_GT(w.churn_events(), 20u);
}

TEST(Workload, NoChurnByDefault) {
  Workload w(small_workload(), 19);
  for (int i = 0; i < 50; ++i) {
    w.step();
    EXPECT_TRUE(w.just_provisioned().empty());
  }
  EXPECT_EQ(w.churn_events(), 0u);
}

TEST(Simulator, ChurnedSitesArePlacedNotMigrated) {
  auto opt = base_sim(41);
  opt.workload.churn_prob = 0.3;
  Simulator simulator(opt, policy_by_name("none"));
  const auto result = simulator.run();
  // Fresh deployments are not migrations: the idle policy still reports 0.
  EXPECT_EQ(result.total_moves, 0);
  EXPECT_EQ(result.total_forced_moves, 0);
  for (const auto& step : result.series) {
    EXPECT_GE(step.makespan, step.ideal);
  }
}

TEST(Simulator, ChurnWithActivePolicyStaysHealthy) {
  auto opt = base_sim(43);
  opt.workload.churn_prob = 0.2;
  Simulator idle(opt, policy_by_name("none"));
  Simulator active(opt, policy_by_name("best-of"));
  EXPECT_LE(active.run().mean_imbalance, idle.run().mean_imbalance + 0.05);
}

}  // namespace
}  // namespace lrb::sim

#include "core/generators.h"
#include "sim/policies.h"

namespace lrb::sim {
namespace {

TEST(Policies, ByteBudgetPoliciesRespectBytes) {
  auto opt = base_sim(51);
  opt.byte_costs = true;
  const Cost byte_budget = 3000;
  for (auto policy : {cost_partition_policy(byte_budget),
                      cost_greedy_policy(byte_budget)}) {
    Simulator simulator(opt, policy);
    const auto result = simulator.run();
    for (const auto& step : result.series) {
      // bytes_moved counts policy moves only on non-drain steps here.
      EXPECT_LE(step.bytes_moved, byte_budget) << "step " << step.step;
    }
  }
}

TEST(Policies, UnitRosterLookup) {
  // "none" plus every registry backend that is not costed.
  std::size_t unit_backends = 0;
  for (const auto& backend : solver::all_backends()) {
    if (!backend.costed) ++unit_backends;
  }
  EXPECT_EQ(unit_policies().size(), 1 + unit_backends);
  const auto policy = unit_policy("greedy");
  lrb::GeneratorOptions gen;
  gen.num_jobs = 20;
  gen.num_procs = 4;
  const auto inst = lrb::random_instance(gen, 1);
  const auto result = policy(inst, 3);
  EXPECT_LE(result.moves, 3);

  // Registry aliases resolve to their backend; unknown and costed names
  // give an empty Policy.
  const std::pair<const char*, const char*> aliases[] = {
      {"lpt-full", "lpt"}, {"mp-ls", "local-search"}, {"bestof", "best-of"}};
  for (const auto& [alias, canonical] : aliases) {
    const Policy by_alias = unit_policy(alias);
    const Policy by_name = unit_policy(canonical);
    ASSERT_TRUE(by_alias) << alias;
    ASSERT_TRUE(by_name) << canonical;
    EXPECT_EQ(by_alias(inst, 3).assignment, by_name(inst, 3).assignment)
        << alias;
  }
  EXPECT_TRUE(unit_policy("none"));
  EXPECT_FALSE(unit_policy("no-such-policy"));
  EXPECT_FALSE(unit_policy(""));
  EXPECT_FALSE(unit_policy("ptas"));
}

TEST(Policies, CostAwareBeatsCostBlindOnBytes) {
  // With byte costs, the byte-budgeted policies move fewer bytes than the
  // unit greedy spending the same number of MOVES unconstrained by bytes.
  auto opt = base_sim(53);
  opt.byte_costs = true;
  Simulator aware(opt, cost_partition_policy(2000));
  Simulator blind(opt, unit_policy("greedy"));
  const auto aware_result = aware.run();
  const auto blind_result = blind.run();
  EXPECT_LT(aware_result.total_bytes, blind_result.total_bytes + 1);
}

}  // namespace
}  // namespace lrb::sim

namespace lrb::sim {
namespace {

TEST(GradualExecution, MigrationRateRespected) {
  auto opt = base_sim(61);
  opt.migrations_per_step = 2;
  opt.move_budget = 12;
  Simulator simulator(opt, policy_by_name("greedy"));
  const auto result = simulator.run();
  std::int64_t total = 0;
  for (const auto& step : result.series) {
    EXPECT_LE(step.moves, 2) << "step " << step.step;
    total += step.moves;
  }
  EXPECT_GT(total, 0);
}

TEST(GradualExecution, ConvergesTowardInstantaneousQuality) {
  // With a generous migration rate, gradual execution should track the
  // instantaneous mode closely.
  auto opt = base_sim(63);
  opt.move_budget = 8;
  Simulator instant(opt, policy_by_name("greedy"));
  auto gradual_opt = opt;
  gradual_opt.migrations_per_step = 8;
  Simulator gradual(gradual_opt, policy_by_name("greedy"));
  const auto instant_result = instant.run();
  const auto gradual_result = gradual.run();
  EXPECT_LT(gradual_result.mean_imbalance,
            instant_result.mean_imbalance + 0.15);
}

TEST(GradualExecution, StaleMigrationsSkippedUnderChurn) {
  // Churn re-places sites mid-plan; the executor must skip stale steps
  // without crashing or double-counting.
  auto opt = base_sim(65);
  opt.migrations_per_step = 1;
  opt.workload.churn_prob = 0.3;
  opt.drain_prob = 0.1;
  Simulator simulator(opt, policy_by_name("best-of"));
  const auto result = simulator.run();
  for (const auto& step : result.series) {
    EXPECT_LE(step.moves, 1);
    EXPECT_GE(step.makespan, step.ideal);
  }
}

TEST(GradualExecution, SlowerDrainMeansWorseTracking) {
  // One migration per step cannot keep up with a 6-move budget every 4
  // steps; imbalance should be no better than the fast-drain run.
  auto opt = base_sim(67);
  opt.move_budget = 6;
  auto slow_opt = opt;
  slow_opt.migrations_per_step = 1;
  auto fast_opt = opt;
  fast_opt.migrations_per_step = 6;
  Simulator slow(slow_opt, policy_by_name("greedy"));
  Simulator fast(fast_opt, policy_by_name("greedy"));
  EXPECT_GE(slow.run().mean_imbalance + 0.03, fast.run().mean_imbalance);
}

}  // namespace
}  // namespace lrb::sim
