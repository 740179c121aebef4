// Unit tests for the streaming-session subsystem (src/stream/,
// docs/streaming.md): ClusterSession state tracking, delta rejection
// semantics, trigger evaluation, the serial replay reference, the
// .lrbd delta-log format, and the incrementally maintained state digest.

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
#include "online/trace.h"
#include "stream/delta_log.h"
#include "stream/replay.h"
#include "stream/session.h"
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
      session.step(delta, seq, serial_reference_solver(false));
  EXPECT_TRUE(result.applied) << result.error;
  return result;
}

StepResult must_reject(ClusterSession& session, const Delta& delta,
                       std::uint64_t seq) {
  const StepResult result =
      session.step(delta, seq, serial_reference_solver(false));
  EXPECT_FALSE(result.applied);
  EXPECT_FALSE(result.error.empty());
  return result;
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
// The serial replay reference.
// ---------------------------------------------------------------------------

DeltaLog sample_log(std::uint64_t seed, std::size_t events) {
  TriggerConfig trigger;
  trigger.spec = solver::BackendId::kBestOf;
  trigger.imbalance_ratio = 1.5;
  trigger.delta_count = 16;
  online::TraceOptions options;
  options.num_events = events;
  options.departure_fraction = 0.4;
  return delta_log_from_trace(mixed_corpus_instance(0, seed),
                              online::random_trace(options, seed), trigger);
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

TEST(StreamReplay, CachedReferenceMatchesThePlainOne) {
  // The solution cache is proven byte-identical to the serial solver
  // (docs/caching.md), so the cached replay must produce the exact same
  // transcript — this is what lets one checker serve both server modes.
  const DeltaLog log = sample_log(12, 100);
  const ReplayResult plain =
      replay_serial_reference(log.initial, log.trigger, log.deltas, {});
  ReplayOptions cached;
  cached.cached = true;
  const ReplayResult with_cache =
      replay_serial_reference(log.initial, log.trigger, log.deltas, cached);
  ASSERT_TRUE(plain.ok) << plain.error;
  ASSERT_TRUE(with_cache.ok) << with_cache.error;
  ASSERT_EQ(plain.steps.size(), with_cache.steps.size());
  for (std::size_t i = 0; i < plain.steps.size(); ++i) {
    EXPECT_EQ(plain.steps[i].digest, with_cache.steps[i].digest)
        << "step " << i;
  }
  EXPECT_EQ(plain.final_stats.digest, with_cache.final_stats.digest);
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
  const Instance initial = small_instance();
  online::TraceOptions options;
  options.num_events = 40;
  options.departure_fraction = 0.5;
  const auto events = online::random_trace(options, 5);
  const DeltaLog log =
      delta_log_from_trace(initial, events, quiet_trigger());
  ASSERT_EQ(log.deltas.size(), events.size());
  std::size_t arrivals = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (log.deltas[i].kind == DeltaKind::kJobArrive) {
      // Arrival j gets stable id initial.num_jobs() + j.
      EXPECT_EQ(log.deltas[i].id, initial.num_jobs() + arrivals);
      EXPECT_EQ(log.deltas[i].proc, kAutoPlace);
      ++arrivals;
    } else {
      EXPECT_EQ(log.deltas[i].kind, DeltaKind::kJobDepart);
      EXPECT_GE(log.deltas[i].id, initial.num_jobs());
    }
  }
  EXPECT_GT(arrivals, 0u);
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
  *result = session.step(delta, seq, serial_reference_solver(false));
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
