// Unit tests for the streaming-session subsystem (src/stream/,
// docs/streaming.md): ClusterSession state tracking, delta rejection
// semantics, trigger evaluation, the random trace generator and the
// dynamic setting it drives (Graham placement, bounded rebalancing), the
// serial replay reference, the .lrbd delta-log format, and the
// incrementally maintained state digest.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/generators.h"
#include "core/instance.h"
#include "stream/delta_log.h"
#include "stream/replay.h"
#include "stream/session.h"
#include "stream/trace.h"
#include "util/rng.h"

#ifndef LRB_CORPUS_DIR
#error "LRB_CORPUS_DIR must point at the committed tests/corpus directory"
#endif

namespace lrb::stream {
namespace {

/// 2 processors, loads {7, 3}: job sizes 4+3 on proc 0, 2+1 on proc 1.
Instance small_instance() {
  return make_instance({4, 3, 2, 1}, {0, 0, 1, 1}, 2);
}

/// A trigger that never fires on its own (only kReplan / kProcDrain plan).
TriggerConfig quiet_trigger() {
  TriggerConfig config;
  config.spec = solver::BackendId::kBestOf;
  config.imbalance_ratio = 0.0;
  config.delta_count = 0;
  return config;
}

ClusterSession must_open(const Instance& initial,
                         const TriggerConfig& config) {
  std::string error;
  auto session = ClusterSession::open(initial, config, &error);
  EXPECT_TRUE(session) << error;
  return session ? *std::move(session) : ClusterSession{};
}

StepResult must_apply(ClusterSession& session, const Delta& delta,
                      std::uint64_t seq) {
  const StepResult result =
      session.step(delta, seq, serial_reference_solver());
  EXPECT_TRUE(result.applied) << result.error;
  return result;
}

StepResult must_reject(ClusterSession& session, const Delta& delta,
                       std::uint64_t seq) {
  const StepResult result =
      session.step(delta, seq, serial_reference_solver());
  EXPECT_FALSE(result.applied);
  EXPECT_FALSE(result.error.empty());
  return result;
}

Delta job_delta(DeltaKind kind, std::uint64_t id, Size size = 0,
                std::uint64_t proc = kAutoPlace, Cost move_cost = 1) {
  Delta delta;
  delta.kind = kind;
  delta.id = id;
  delta.size = size;
  delta.move_cost = move_cost;
  delta.proc = proc;
  return delta;
}

Delta proc_delta(DeltaKind kind, std::uint64_t id) {
  Delta delta;
  delta.kind = kind;
  delta.id = id;
  return delta;
}

void apply_all(ClusterSession& session, const std::vector<Delta>& deltas) {
  std::uint64_t seq = 0;
  for (const Delta& delta : deltas) must_apply(session, delta, ++seq);
}

/// An m-processor cluster with no jobs: where the dynamic setting starts.
Instance empty_cluster(ProcId m) {
  Instance cluster;
  cluster.num_procs = m;
  return cluster;
}

/// Per-processor loads, indexed by processor slot (equal to the processor
/// id while no processor has been removed).
std::vector<Size> loads_of(const ClusterSession& session) {
  const Instance live = session.snapshot();
  std::vector<Size> loads(live.num_procs, 0);
  for (std::size_t j = 0; j < live.num_jobs(); ++j) {
    loads[live.initial[j]] += live.sizes[j];
  }
  return loads;
}

TEST(StreamSession, OpenMirrorsTheInitialInstance) {
  ClusterSession session = must_open(small_instance(), quiet_trigger());
  EXPECT_EQ(session.num_jobs(), 4u);
  EXPECT_EQ(session.num_procs(), 2u);
  EXPECT_EQ(session.makespan(), 7);
  EXPECT_GE(session.lower_bound(), 4);  // max job is 4
  EXPECT_NE(session.digest(), 0u);

  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.num_jobs, 4u);
  EXPECT_EQ(stats.num_procs, 2u);
  EXPECT_EQ(stats.deltas_applied, 0u);
  EXPECT_EQ(stats.deltas_rejected, 0u);
  EXPECT_EQ(stats.plans_emitted, 0u);
  EXPECT_EQ(stats.last_seq, 0u);
  EXPECT_EQ(stats.digest, session.digest());
}

TEST(StreamSession, OpenRejectsInvalidInputs) {
  std::string error;
  Instance bad = small_instance();
  bad.initial[0] = 9;  // out of range
  EXPECT_FALSE(ClusterSession::open(bad, quiet_trigger(), &error));
  EXPECT_FALSE(error.empty());

  TriggerConfig bad_trigger = quiet_trigger();
  bad_trigger.move_frac = -0.5;
  error.clear();
  EXPECT_FALSE(
      ClusterSession::open(small_instance(), bad_trigger, &error));
  EXPECT_FALSE(error.empty());
}

TEST(StreamSession, AutoPlacedArrivalLandsOnTheLeastLoadedProcessor) {
  ClusterSession session = must_open(small_instance(), quiet_trigger());
  // Loads are {7, 3}; an auto-placed size-5 job must go to processor 1.
  Delta arrive;
  arrive.kind = DeltaKind::kJobArrive;
  arrive.id = 4;
  arrive.size = 5;
  arrive.proc = kAutoPlace;
  must_apply(session, arrive, 1);
  EXPECT_EQ(session.makespan(), 8);  // {7, 8}
  EXPECT_EQ(session.num_jobs(), 5u);
}

TEST(StreamSession, DepartAndUpdateTrackLoads) {
  ClusterSession session = must_open(small_instance(), quiet_trigger());
  Delta depart;
  depart.kind = DeltaKind::kJobDepart;
  depart.id = 0;  // size 4 on processor 0
  must_apply(session, depart, 1);
  EXPECT_EQ(session.makespan(), 3);  // {3, 3}
  EXPECT_EQ(session.num_jobs(), 3u);

  Delta update;
  update.kind = DeltaKind::kJobUpdate;
  update.id = 3;  // on processor 1, size 1 -> 9
  update.size = 9;
  must_apply(session, update, 2);
  EXPECT_EQ(session.makespan(), 11);  // {3, 11}
}

TEST(StreamSession, RejectionsConsumeTheSeqSlotWithoutMutatingState) {
  ClusterSession session = must_open(small_instance(), quiet_trigger());
  const std::uint64_t digest_before = session.digest();

  Delta unknown_job;
  unknown_job.kind = DeltaKind::kJobDepart;
  unknown_job.id = 99;
  must_reject(session, unknown_job, 1);

  Delta unknown_update;
  unknown_update.kind = DeltaKind::kJobUpdate;
  unknown_update.id = 99;
  unknown_update.size = 5;
  must_reject(session, unknown_update, 2);

  Delta duplicate_arrival;
  duplicate_arrival.kind = DeltaKind::kJobArrive;
  duplicate_arrival.id = 0;  // already live
  duplicate_arrival.size = 2;
  must_reject(session, duplicate_arrival, 3);

  Delta unknown_proc;
  unknown_proc.kind = DeltaKind::kProcRemove;
  unknown_proc.id = 42;
  must_reject(session, unknown_proc, 4);

  Delta bad_target;
  bad_target.kind = DeltaKind::kJobArrive;
  bad_target.id = 7;
  bad_target.size = 1;
  bad_target.proc = 42;  // unknown target processor
  must_reject(session, bad_target, 5);

  EXPECT_EQ(session.digest(), digest_before);
  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.deltas_applied, 0u);
  EXPECT_EQ(stats.deltas_rejected, 5u);
  EXPECT_EQ(stats.last_seq, 5u);
}

TEST(StreamSession, RemovingANonEmptyProcessorIsRejectedWithADrainHint) {
  ClusterSession session = must_open(small_instance(), quiet_trigger());
  Delta remove;
  remove.kind = DeltaKind::kProcRemove;
  remove.id = 0;  // holds two jobs
  const StepResult result = must_reject(session, remove, 1);
  EXPECT_NE(result.error.find("drain"), std::string::npos)
      << "rejection should point at proc-drain: " << result.error;
  EXPECT_EQ(session.num_procs(), 2u);

  // An empty processor removes cleanly.
  Delta add;
  add.kind = DeltaKind::kProcAdd;
  add.id = 9;
  must_apply(session, add, 2);
  EXPECT_EQ(session.num_procs(), 3u);
  remove.id = 9;
  must_apply(session, remove, 3);
  EXPECT_EQ(session.num_procs(), 2u);
}

TEST(StreamSession, DrainEvacuatesEveryJobAndEmitsTheForcedMoves) {
  ClusterSession session = must_open(small_instance(), quiet_trigger());
  Delta drain;
  drain.kind = DeltaKind::kProcDrain;
  drain.id = 0;  // jobs 0 and 1 live here
  const StepResult result = must_apply(session, drain, 1);
  ASSERT_GE(result.plans.size(), 1u);
  const SessionPlan& plan = result.plans.front();
  EXPECT_EQ(plan.reason, PlanReason::kDrain);
  EXPECT_EQ(plan.triggered_by_seq, 1u);
  EXPECT_EQ(plan.moves.size(), 2u);
  for (const PlanMove& move : plan.moves) EXPECT_EQ(move.from, 0u);
  EXPECT_EQ(session.num_procs(), 1u);
  EXPECT_EQ(session.num_jobs(), 4u);
  EXPECT_EQ(session.makespan(), 10);  // everything on processor 1
}

TEST(StreamSession, ExplicitReplanRespectsTheMoveBudget) {
  TriggerConfig config = quiet_trigger();
  config.move_budget = 1;
  // Skewed start: everything on processor 0.
  ClusterSession session =
      must_open(make_instance({5, 4, 3, 2}, {0, 0, 0, 0}, 2), config);
  EXPECT_EQ(session.makespan(), 14);

  Delta replan;
  replan.kind = DeltaKind::kReplan;
  const StepResult result = must_apply(session, replan, 1);
  ASSERT_EQ(result.plans.size(), 1u);
  const SessionPlan& plan = result.plans.front();
  EXPECT_EQ(plan.reason, PlanReason::kExplicit);
  EXPECT_LE(plan.moves.size(), 1u);
  EXPECT_LE(plan.makespan_after, plan.makespan_before);
  EXPECT_EQ(plan.makespan_before, 14);
  EXPECT_EQ(session.makespan(), plan.makespan_after);
}

TEST(StreamTriggers, DeltaCountFiresEveryNAppliedDeltas) {
  TriggerConfig config = quiet_trigger();
  config.delta_count = 3;
  ClusterSession session = must_open(small_instance(), config);

  std::size_t plans = 0;
  for (std::uint64_t seq = 1; seq <= 6; ++seq) {
    Delta arrive;
    arrive.kind = DeltaKind::kJobArrive;
    arrive.id = 100 + seq;
    arrive.size = 2;
    const StepResult result = must_apply(session, arrive, seq);
    plans += result.plans.size();
    if (seq == 3 || seq == 6) {
      ASSERT_EQ(result.plans.size(), 1u) << "seq " << seq;
      EXPECT_EQ(result.plans.front().reason, PlanReason::kDeltaCount);
      EXPECT_EQ(result.plans.front().triggered_by_seq, seq);
    } else {
      EXPECT_TRUE(result.plans.empty()) << "seq " << seq;
    }
  }
  EXPECT_EQ(plans, 2u);
  EXPECT_EQ(session.stats().plans_emitted, 2u);
}

TEST(StreamTriggers, RejectedDeltasDoNotAdvanceTheDeltaCountTrigger) {
  TriggerConfig config = quiet_trigger();
  config.delta_count = 2;
  ClusterSession session = must_open(small_instance(), config);

  Delta bogus;
  bogus.kind = DeltaKind::kJobDepart;
  bogus.id = 99;
  must_reject(session, bogus, 1);
  must_reject(session, bogus, 2);

  Delta arrive;
  arrive.kind = DeltaKind::kJobArrive;
  arrive.id = 50;
  arrive.size = 1;
  const StepResult first = must_apply(session, arrive, 3);
  EXPECT_TRUE(first.plans.empty());  // only 1 applied so far
  arrive.id = 51;
  const StepResult second = must_apply(session, arrive, 4);
  ASSERT_EQ(second.plans.size(), 1u);  // 2 applied deltas -> fires
  EXPECT_EQ(second.plans.front().reason, PlanReason::kDeltaCount);
}

TEST(StreamTriggers, ImbalanceFiresWhenMakespanDriftsPastTheBound) {
  TriggerConfig config = quiet_trigger();
  config.imbalance_ratio = 1.5;
  // Balanced start: {4, 4} with lower bound 4.
  ClusterSession session =
      must_open(make_instance({4, 4}, {0, 1}, 2), config);

  // A size-4 arrival pinned to processor 0 makes loads {8, 4}:
  // makespan 8 > 1.5 * lb(6) is false, so no plan yet...
  Delta arrive;
  arrive.kind = DeltaKind::kJobArrive;
  arrive.id = 10;
  arrive.size = 4;
  arrive.proc = 0;
  const StepResult quiet = must_apply(session, arrive, 1);
  EXPECT_TRUE(quiet.plans.empty());

  // ...but a second pinned arrival makes {12, 4}: 12 > 1.5 * 8 fails,
  // 12 > 1.5 * lb — lb is max(avg=8, max_job=4) = 8, so 12 == 1.5 * 8 is
  // not strictly greater; push once more to {16, 4}: 16 > 1.5 * 10.
  arrive.id = 11;
  must_apply(session, arrive, 2);
  arrive.id = 12;
  const StepResult fired = must_apply(session, arrive, 3);
  ASSERT_EQ(fired.plans.size(), 1u);
  EXPECT_EQ(fired.plans.front().reason, PlanReason::kImbalance);
  // The replan must actually reduce drift.
  EXPECT_LT(fired.plans.front().makespan_after,
            fired.plans.front().makespan_before);
}

TEST(StreamTriggers, ValidateTriggerCatchesBadConfigs) {
  EXPECT_FALSE(validate_trigger(quiet_trigger()).has_value());

  TriggerConfig config = quiet_trigger();
  config.move_frac = -0.25;
  EXPECT_TRUE(validate_trigger(config).has_value());

  config = quiet_trigger();
  config.imbalance_ratio = -1.0;
  EXPECT_TRUE(validate_trigger(config).has_value());

  config = quiet_trigger();
  config.spec.params.eps = 0.0;
  EXPECT_TRUE(validate_trigger(config).has_value());
}

// ---------------------------------------------------------------------------
// The random trace generator (stream/trace.h).
// ---------------------------------------------------------------------------

TEST(Trace, WellFormedAcrossSeeds) {
  // Well formed = every delta applies: no departure names a job that has
  // not arrived or has already left, and no arrival reuses a live id.
  TraceOptions opt;
  opt.num_events = 500;
  opt.departure_fraction = 0.45;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto trace = random_trace(opt, seed);
    EXPECT_EQ(trace.size(), 500u);
    ClusterSession session = must_open(empty_cluster(4), quiet_trigger());
    std::uint64_t seq = 0;
    for (const Delta& delta : trace) must_apply(session, delta, ++seq);
    EXPECT_EQ(session.stats().deltas_rejected, 0u) << "seed=" << seed;
  }
}

TEST(Trace, DeterministicInSeed) {
  TraceOptions opt;
  const auto a = random_trace(opt, 7);
  const auto b = random_trace(opt, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].size, b[i].size);
    EXPECT_EQ(a[i].move_cost, b[i].move_cost);
  }
}

TEST(Trace, ZeroDepartureFractionIsAllArrivals) {
  TraceOptions opt;
  opt.num_events = 100;
  opt.departure_fraction = 0.0;
  const auto trace = random_trace(opt, 3);
  for (const Delta& delta : trace) {
    EXPECT_EQ(delta.kind, DeltaKind::kJobArrive);
  }
}

// ---------------------------------------------------------------------------
// The dynamic setting on a session: Graham placement and bounded
// rebalancing (experiment E16, bench/bench_online.cpp).
// ---------------------------------------------------------------------------

TEST(Scheduler, GrahamPlacementOnArrival) {
  // Graham's rule from an empty 3-processor cluster, ties to the lowest
  // id: 5 -> P0 (all empty), 3 -> P1 (P1 and P2 empty), 2 -> P2, and
  // 1 -> P2 (2 < 3 < 5).
  ClusterSession session = must_open(empty_cluster(3), quiet_trigger());
  std::uint64_t seq = 0;
  for (const Size size : {5, 3, 2, 1}) {
    must_apply(session, job_delta(DeltaKind::kJobArrive, seq, size), seq + 1);
    ++seq;
  }
  EXPECT_EQ(loads_of(session), (std::vector<Size>{5, 3, 3}));
  EXPECT_EQ(session.makespan(), 5);
  EXPECT_EQ(session.num_jobs(), 4u);
}

TEST(Scheduler, SnapshotReflectsAliveJobsOnly) {
  ClusterSession session = must_open(empty_cluster(2), quiet_trigger());
  must_apply(session, job_delta(DeltaKind::kJobArrive, 0, 7, kAutoPlace, 3),
             1);
  must_apply(session, job_delta(DeltaKind::kJobArrive, 1, 5, kAutoPlace, 2),
             2);
  must_apply(session, job_delta(DeltaKind::kJobDepart, 0), 3);
  const Instance snap = session.snapshot();
  ASSERT_EQ(snap.num_jobs(), 1u);
  EXPECT_EQ(snap.sizes[0], 5);
  EXPECT_EQ(snap.move_costs[0], 2);
  EXPECT_EQ(snap.initial[0], 1u);
}

TEST(Scheduler, PureArrivalsStayWithinGrahamBound) {
  // Without departures, list scheduling is (2 - 1/m)-competitive against
  // the session's lower bound.
  TraceOptions opt;
  opt.num_events = 300;
  opt.departure_fraction = 0.0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    ClusterSession session = must_open(empty_cluster(5), quiet_trigger());
    std::uint64_t seq = 0;
    for (const Delta& delta : random_trace(opt, seed)) {
      must_apply(session, delta, ++seq);
      const double bound =
          (2.0 - 1.0 / 5.0) * static_cast<double>(session.lower_bound());
      EXPECT_LE(static_cast<double>(session.makespan()), bound + 1e-9);
    }
  }
}

TEST(Scheduler, DeparturesErodeBalanceRebalancingRestoresIt) {
  // With biased departures, the never-rebalanced run drifts away from the
  // lower bound; M-PARTITION with a budget of 4 moves every 25 deltas
  // keeps the MEAN tracking ratio strictly better across seeds.
  TraceOptions opt;
  opt.num_events = 600;
  opt.departure_fraction = 0.45;
  opt.bias_large_departures = true;
  TriggerConfig managed_config = quiet_trigger();
  managed_config.spec = solver::BackendId::kMPartition;
  managed_config.delta_count = 25;
  managed_config.move_budget = 4;
  double managed_mean_total = 0, unmanaged_mean_total = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    ClusterSession managed = must_open(empty_cluster(6), managed_config);
    ClusterSession unmanaged = must_open(empty_cluster(6), quiet_trigger());
    double managed_sum = 0, unmanaged_sum = 0;
    std::size_t samples = 0;
    std::uint64_t seq = 0;
    for (const Delta& delta : random_trace(opt, seed)) {
      ++seq;
      for (const SessionPlan& plan :
           must_apply(managed, delta, seq).plans) {
        EXPECT_LE(plan.moves.size(), 4u);
      }
      EXPECT_TRUE(must_apply(unmanaged, delta, seq).plans.empty());
      if (managed.num_jobs() > 0) {
        managed_sum += static_cast<double>(managed.makespan()) /
                       static_cast<double>(managed.lower_bound());
        unmanaged_sum += static_cast<double>(unmanaged.makespan()) /
                         static_cast<double>(unmanaged.lower_bound());
        ++samples;
      }
    }
    EXPECT_EQ(managed.stats().plans_emitted, 600u / 25u);
    ASSERT_GT(samples, 0u);
    managed_mean_total += managed_sum / static_cast<double>(samples);
    unmanaged_mean_total += unmanaged_sum / static_cast<double>(samples);
  }
  EXPECT_LT(managed_mean_total, unmanaged_mean_total);
}

TEST(Scheduler, RebalanceAppliesAssignmentAndCountsMoves) {
  // Departures empty P1 and P2 while two pinned arrivals pile onto P0:
  // loads {27, 0, 0}. A replan with k = 2 moves at most two jobs, and the
  // session applies exactly the plan it reports.
  TriggerConfig config = quiet_trigger();
  config.spec = solver::BackendId::kMPartition;
  config.move_budget = 2;
  ClusterSession session = must_open(empty_cluster(3), config);
  apply_all(session, {
                         job_delta(DeltaKind::kJobArrive, 0, 9),
                         job_delta(DeltaKind::kJobArrive, 1, 8),
                         job_delta(DeltaKind::kJobArrive, 2, 7),
                         job_delta(DeltaKind::kJobDepart, 1),
                         job_delta(DeltaKind::kJobDepart, 2),
                         job_delta(DeltaKind::kJobArrive, 3, 9, 0),
                         job_delta(DeltaKind::kJobArrive, 4, 9, 0),
                     });
  EXPECT_EQ(loads_of(session), (std::vector<Size>{27, 0, 0}));
  const Size before = session.makespan();
  Delta replan;
  replan.kind = DeltaKind::kReplan;
  const StepResult result = must_apply(session, replan, 8);
  ASSERT_EQ(result.plans.size(), 1u);
  const SessionPlan& plan = result.plans.front();
  EXPECT_LE(plan.moves.size(), 2u);
  EXPECT_EQ(plan.makespan_before, before);
  EXPECT_LT(session.makespan(), before);
  EXPECT_EQ(session.makespan(), plan.makespan_after);
  EXPECT_EQ(session.stats().moves_total, plan.moves.size());
}

// ---------------------------------------------------------------------------
// The serial replay reference.
// ---------------------------------------------------------------------------

DeltaLog sample_log(std::uint64_t seed, std::size_t events) {
  DeltaLog log;
  log.initial = mixed_corpus_instance(0, seed);
  log.trigger.spec = solver::BackendId::kBestOf;
  log.trigger.imbalance_ratio = 1.5;
  log.trigger.delta_count = 16;
  TraceOptions options;
  options.num_events = events;
  options.departure_fraction = 0.4;
  log.deltas = random_trace(options, seed, log.initial.num_jobs());
  return log;
}

TEST(StreamReplay, IsDeterministicAcrossRuns) {
  const DeltaLog log = sample_log(11, 120);
  const ReplayResult a =
      replay_serial_reference(log.initial, log.trigger, log.deltas);
  const ReplayResult b =
      replay_serial_reference(log.initial, log.trigger, log.deltas);
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(a.open_digest, b.open_digest);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].digest, b.steps[i].digest) << "step " << i;
    EXPECT_EQ(a.steps[i].plans.size(), b.steps[i].plans.size());
  }
  EXPECT_EQ(a.final_stats.digest, b.final_stats.digest);
  EXPECT_EQ(a.final_stats.plans_emitted, b.final_stats.plans_emitted);
  EXPECT_GT(a.final_stats.deltas_applied, 0u);
}

TEST(StreamReplay, RejectionsArePartOfTheTranscript) {
  DeltaLog log;
  log.initial = small_instance();
  log.trigger = quiet_trigger();
  Delta bogus;
  bogus.kind = DeltaKind::kJobDepart;
  bogus.id = 1234;
  log.deltas.push_back(bogus);
  Delta fine;
  fine.kind = DeltaKind::kJobDepart;
  fine.id = 0;
  log.deltas.push_back(fine);

  const ReplayResult result =
      replay_serial_reference(log.initial, log.trigger, log.deltas);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.steps.size(), 2u);
  EXPECT_FALSE(result.steps[0].applied);
  EXPECT_FALSE(result.steps[0].error.empty());
  EXPECT_EQ(result.steps[0].digest, result.open_digest);  // state untouched
  EXPECT_TRUE(result.steps[1].applied);
  EXPECT_EQ(result.final_stats.deltas_applied, 1u);
  EXPECT_EQ(result.final_stats.deltas_rejected, 1u);
}

// ---------------------------------------------------------------------------
// Delta logs (.lrbd).
// ---------------------------------------------------------------------------

TEST(StreamDeltaLog, RoundTripsThroughText) {
  const DeltaLog log = sample_log(13, 80);
  const std::string text = delta_log_to_string(log);
  std::string error;
  const auto parsed = delta_log_from_string(text, &error);
  ASSERT_TRUE(parsed) << error;
  EXPECT_EQ(delta_log_to_string(*parsed), text);

  // Same transcript after the round trip.
  const ReplayResult a =
      replay_serial_reference(log.initial, log.trigger, log.deltas);
  const ReplayResult b = replay_serial_reference(
      parsed->initial, parsed->trigger, parsed->deltas);
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_EQ(a.final_stats.digest, b.final_stats.digest);
}

TEST(StreamDeltaLog, FromTraceAssignsStableJobIds) {
  // Generated after an initial instance, arrival j gets stable id
  // initial.num_jobs() + j, and every departure names a live arrival.
  const Instance initial = small_instance();
  TraceOptions options;
  options.num_events = 40;
  options.departure_fraction = 0.5;
  const auto deltas = random_trace(options, 5, initial.num_jobs());
  ASSERT_EQ(deltas.size(), 40u);
  std::vector<std::uint64_t> alive;
  std::size_t arrivals = 0;
  for (const Delta& delta : deltas) {
    if (delta.kind == DeltaKind::kJobArrive) {
      EXPECT_EQ(delta.id, initial.num_jobs() + arrivals);
      EXPECT_EQ(delta.proc, kAutoPlace);
      alive.push_back(delta.id);
      ++arrivals;
    } else {
      ASSERT_EQ(delta.kind, DeltaKind::kJobDepart);
      const auto it = std::find(alive.begin(), alive.end(), delta.id);
      ASSERT_NE(it, alive.end()) << "departure of job " << delta.id;
      alive.erase(it);
    }
  }
  EXPECT_GT(arrivals, 0u);
  EXPECT_LT(arrivals, deltas.size());
}

TEST(StreamDeltaLog, RejectsMalformedText) {
  std::string error;
  EXPECT_FALSE(delta_log_from_string("not a delta log", &error));
  EXPECT_FALSE(error.empty());

  // Truncating a valid log anywhere after the schema line must fail too.
  const std::string text = delta_log_to_string(sample_log(14, 10));
  error.clear();
  EXPECT_FALSE(
      delta_log_from_string(text.substr(0, text.size() / 2), &error));
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------------
// The state digest: a function of the state alone, sensitive to every
// field, and maintained incrementally without drifting from a rebuild.
// ---------------------------------------------------------------------------

TEST(StreamDigest, IsIndependentOfHistory) {
  // Both orders end with processors {0, 1, 5} and jobs {1, 2, 3, 10, 11}
  // (job 2 re-added with size 6), but swap-removals and a processor
  // removed from a middle slot leave different slot layouts behind.
  ClusterSession a = must_open(small_instance(), quiet_trigger());
  apply_all(a, {
                   proc_delta(DeltaKind::kProcAdd, 5),
                   job_delta(DeltaKind::kJobArrive, 10, 3, 5),
                   job_delta(DeltaKind::kJobDepart, 0),
                   job_delta(DeltaKind::kJobArrive, 11, 2, 0),
                   job_delta(DeltaKind::kJobUpdate, 2, 6),
                   job_delta(DeltaKind::kJobDepart, 2),
                   job_delta(DeltaKind::kJobArrive, 2, 6, 1),
               });
  ClusterSession b = must_open(small_instance(), quiet_trigger());
  apply_all(b, {
                   job_delta(DeltaKind::kJobDepart, 2),
                   proc_delta(DeltaKind::kProcAdd, 5),
                   proc_delta(DeltaKind::kProcRemove, 5),
                   proc_delta(DeltaKind::kProcAdd, 9),
                   proc_delta(DeltaKind::kProcAdd, 5),
                   job_delta(DeltaKind::kJobArrive, 11, 2, 0),
                   job_delta(DeltaKind::kJobArrive, 2, 6, 1),
                   job_delta(DeltaKind::kJobArrive, 10, 3, 5),
                   proc_delta(DeltaKind::kProcRemove, 9),
                   job_delta(DeltaKind::kJobDepart, 0),
               });
  EXPECT_NE(a.snapshot().sizes, b.snapshot().sizes)
      << "the two histories should leave different slot layouts";
  EXPECT_EQ(a.num_jobs(), b.num_jobs());
  EXPECT_EQ(a.num_procs(), b.num_procs());
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.digest(), a.rebuilt_digest());
  EXPECT_EQ(b.digest(), b.rebuilt_digest());
}

TEST(StreamDigest, ChangesWithEveryStateField) {
  // Start: processors {0, 1, 2} with loads {7, 3, 0}. Every variant below
  // keeps the makespan (7) and the counts of the base, so only the
  // per-element terms can tell them apart.
  ClusterSession base = must_open(small_instance(), quiet_trigger());
  apply_all(base, {proc_delta(DeltaKind::kProcAdd, 2),
                   job_delta(DeltaKind::kJobArrive, 9, 1, 1, 1)});
  const auto variant = [](const std::vector<Delta>& tail) {
    ClusterSession session = must_open(small_instance(), quiet_trigger());
    std::vector<Delta> deltas = {proc_delta(DeltaKind::kProcAdd, 2)};
    deltas.insert(deltas.end(), tail.begin(), tail.end());
    apply_all(session, deltas);
    EXPECT_EQ(session.makespan(), 7);
    return session.digest();
  };
  EXPECT_EQ(variant({job_delta(DeltaKind::kJobArrive, 9, 1, 1, 1)}),
            base.digest());
  // One job's size, its move cost, or its processor.
  EXPECT_NE(variant({job_delta(DeltaKind::kJobArrive, 9, 2, 1, 1)}),
            base.digest());
  EXPECT_NE(variant({job_delta(DeltaKind::kJobArrive, 9, 1, 1, 2)}),
            base.digest());
  EXPECT_NE(variant({job_delta(DeltaKind::kJobArrive, 9, 1, 2, 1)}),
            base.digest());
  // Jobs 2 and 3 (sizes 2 and 1, both on processor 1) trade sizes: the
  // loads and the multiset of sizes stay, only the id-size binding moves.
  EXPECT_NE(variant({job_delta(DeltaKind::kJobArrive, 9, 1, 1, 1),
                     job_delta(DeltaKind::kJobUpdate, 2, 1),
                     job_delta(DeltaKind::kJobUpdate, 3, 2)}),
            base.digest());

  // One more, empty, processor.
  const std::uint64_t before = base.digest();
  must_apply(base, proc_delta(DeltaKind::kProcAdd, 3), 3);
  EXPECT_NE(base.digest(), before);
}

/// Steps `session` through `delta` and checks the incremental digest
/// against a rebuild from the resulting state.
void step_and_check_digest(ClusterSession& session, const Delta& delta,
                           std::uint64_t seq, StepResult* result) {
  *result = session.step(delta, seq, serial_reference_solver());
  ASSERT_EQ(session.digest(), session.rebuilt_digest())
      << "seq " << seq << " (" << delta_kind_name(delta.kind) << " "
      << delta.id << ")";
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "unreadable corpus entry " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(StreamDigest, IncrementalMatchesRebuiltOnCorpusTranscripts) {
  std::size_t transcripts = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(LRB_CORPUS_DIR)) {
    if (entry.path().extension() != ".lrbd") continue;
    SCOPED_TRACE(entry.path().filename().string());
    std::string error;
    const auto log = delta_log_from_string(slurp(entry.path()), &error);
    ASSERT_TRUE(log) << error;
    ClusterSession session = must_open(log->initial, log->trigger);
    ASSERT_EQ(session.digest(), session.rebuilt_digest());
    std::uint64_t seq = 0;
    for (const Delta& delta : log->deltas) {
      StepResult result;
      step_and_check_digest(session, delta, ++seq, &result);
      if (testing::Test::HasFatalFailure()) return;
    }
    ++transcripts;
  }
  EXPECT_EQ(transcripts, 3u);
}

TEST(StreamDigest, IncrementalMatchesRebuiltOnRandomTraces) {
  // Every delta kind, with triggers that replan often; processor removals
  // target the newest processor, which auto-placement has not always
  // filled yet, so some apply and the rest are rejected.
  std::vector<std::size_t> applied(8, 0);
  std::size_t plans = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TriggerConfig config = quiet_trigger();
    config.imbalance_ratio = 1.4;
    config.delta_count = 9;
    ClusterSession session = must_open(mixed_corpus_instance(0, seed), config);
    std::vector<std::uint64_t> jobs(session.num_jobs());
    std::vector<std::uint64_t> procs(session.num_procs());
    for (std::size_t i = 0; i < jobs.size(); ++i) jobs[i] = i;
    for (std::size_t i = 0; i < procs.size(); ++i) procs[i] = i;
    std::uint64_t next_id = 1000;
    Rng rng(seed);
    const auto pick = [&rng](const std::vector<std::uint64_t>& ids) {
      return ids[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1))];
    };
    for (std::uint64_t seq = 1; seq <= 300; ++seq) {
      const std::int64_t roll = rng.uniform_int(0, 99);
      Delta delta;
      if (roll < 35 || jobs.empty()) {
        delta = job_delta(DeltaKind::kJobArrive, next_id++,
                          rng.uniform_int(0, 40),
                          rng.bernoulli(0.5) ? kAutoPlace : pick(procs),
                          rng.uniform_int(0, 5));
      } else if (roll < 60) {
        delta = job_delta(DeltaKind::kJobDepart, pick(jobs));
      } else if (roll < 75) {
        delta = job_delta(DeltaKind::kJobUpdate, pick(jobs),
                          rng.uniform_int(0, 40));
      } else if (roll < 84) {
        delta = proc_delta(DeltaKind::kProcAdd, next_id++);
      } else if (roll < 91) {
        delta = proc_delta(DeltaKind::kProcRemove, procs.back());
      } else if (roll < 96) {
        delta = proc_delta(DeltaKind::kProcDrain, pick(procs));
      } else {
        delta.kind = DeltaKind::kReplan;
      }
      StepResult result;
      step_and_check_digest(session, delta, seq, &result);
      if (testing::Test::HasFatalFailure()) return;
      plans += result.plans.size();
      if (!result.applied) continue;
      ++applied[static_cast<std::size_t>(delta.kind)];
      switch (delta.kind) {
        case DeltaKind::kJobArrive:
          jobs.push_back(delta.id);
          break;
        case DeltaKind::kJobDepart:
          jobs.erase(std::find(jobs.begin(), jobs.end(), delta.id));
          break;
        case DeltaKind::kProcAdd:
          procs.push_back(delta.id);
          break;
        case DeltaKind::kProcRemove:
        case DeltaKind::kProcDrain:
          procs.erase(std::find(procs.begin(), procs.end(), delta.id));
          break;
        default:
          break;
      }
    }
  }
  for (std::size_t kind = 1; kind < applied.size(); ++kind) {
    EXPECT_GT(applied[kind], 0u)
        << "no " << delta_kind_name(static_cast<DeltaKind>(kind))
        << " delta applied";
  }
  EXPECT_GT(plans, 0u);
}

}  // namespace
}  // namespace lrb::stream
