// Streaming rebalance sessions: the stateful heart of the wire-v2 session
// protocol (docs/streaming.md).
//
// A ClusterSession tracks a live cluster: jobs and processors carry stable
// client-chosen 64-bit ids, the session maintains the current assignment,
// the per-processor loads and the state digest. A job arrival, departure
// or load change updates them in O(1) expected time (plus O(m) to pick
// the least-loaded processor for an auto-placed arrival); removing or
// draining a processor costs O(n), since jobs on the last slot are
// renumbered. Drift is tracked as "current makespan vs. the lower bounds
// of core/lower_bounds". That bound costs O(n) per ack, and per delta
// while the imbalance trigger is on: lower_bound() recomputes it from a
// snapshot() instead of maintaining it, so the session and the one-shot
// solvers share one definition of the bound, and the largest-job term
// would otherwise need an ordered multiset of sizes to survive
// departures. When the configured RebalanceTrigger fires (imbalance
// ratio, delta count, or an explicit Replan delta), the session plans a
// bounded-move repair through a caller-supplied solve function (the
// server wires engine::BatchSolver here; the replay reference wires
// engine::cached_serial_reference) and applies
// only the resulting *move diff*.
//
// Determinism contract: ClusterSession is a pure function of
// (initial instance, trigger config, delta sequence, solve function).
// The server and stream::replay_serial_reference run this exact code over
// the same inputs, so every emitted SessionPlan and every post-apply state
// digest is byte-comparable between them — the same contract the
// svc/cache/chaos layers already enforce for one-shot Solves.
//
// Rejected deltas are first-class: a delta referencing an unknown job or
// processor (or any other invalid transition) is rejected WITHOUT mutating
// state, consumes its sequence slot, and the session continues. Both sides
// of the replay comparison reject identically, so rejection is part of the
// deterministic transcript, not an out-of-band failure.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/assignment.h"
#include "core/instance.h"
#include "core/types.h"
#include "solver/spec.h"

namespace lrb::stream {

/// Sentinel processor id for job arrivals: "place on the least-loaded
/// processor" (ties broken by lowest processor id).
inline constexpr std::uint64_t kAutoPlace = ~std::uint64_t{0};

enum class DeltaKind : std::uint8_t {
  kJobArrive = 1,   ///< new job `id` of `size`/`move_cost` on `proc`
  kJobDepart = 2,   ///< job `id` leaves the cluster
  kJobUpdate = 3,   ///< job `id`'s size becomes `size` (absolute, not delta)
  kProcAdd = 4,     ///< new empty processor `id`
  kProcRemove = 5,  ///< processor `id` leaves; must be empty (else rejected)
  kProcDrain = 6,   ///< force-move every job off `id`, then remove it
  kReplan = 7,      ///< explicit client-requested rebalance
};

[[nodiscard]] const char* delta_kind_name(DeltaKind kind);

/// One streamed state change. `id` names a job for the kJob* kinds and a
/// processor for the kProc* kinds; unused fields are ignored (and must be
/// encoded as zero / kAutoPlace on the wire so frames stay byte-stable).
struct Delta {
  DeltaKind kind = DeltaKind::kReplan;
  std::uint64_t id = 0;
  Size size = 0;       ///< kJobArrive / kJobUpdate
  Cost move_cost = 1;  ///< kJobArrive
  std::uint64_t proc = kAutoPlace;  ///< kJobArrive target
};

/// When the session replans. Checked after every applied delta, in this
/// order: delta_count first, then imbalance (at most one fires per delta;
/// kProcDrain and kReplan plan unconditionally).
struct TriggerConfig {
  /// Replan backend + parameters (solver registry, docs/solvers.md).
  solver::SolverSpec spec;
  /// Absolute move budget per replan; 0 = derive from move_frac.
  std::uint32_t move_budget = 0;
  /// Budget as a fraction of live jobs: k = max(1, floor(frac * n)).
  double move_frac = 0.25;
  /// Fire when makespan > ratio * max(lower_bound, 1); 0 disables.
  double imbalance_ratio = 0.0;
  /// Fire every N applied deltas; 0 disables.
  std::uint32_t delta_count = 0;
};

/// Validates a trigger config (finite fractions in range, plus the solver
/// registry's own parameter validation for the spec).
/// Returns an error description or nullopt when valid.
[[nodiscard]] std::optional<std::string> validate_trigger(
    const TriggerConfig& config);

enum class PlanReason : std::uint8_t {
  kImbalance = 1,   ///< makespan drifted past imbalance_ratio * lower bound
  kDeltaCount = 2,  ///< delta_count applied deltas since the last plan
  kExplicit = 3,    ///< client sent DeltaKind::kReplan
  kDrain = 4,       ///< forced moves evacuating a drained processor
};

[[nodiscard]] const char* plan_reason_name(PlanReason reason);

/// One relocation in a plan, in stable ids.
struct PlanMove {
  std::uint64_t job = 0;
  std::uint64_t from = 0;
  std::uint64_t to = 0;
};

/// The move diff streamed back to the client (wire type kSessionPlan).
/// Already applied to the session state when emitted.
struct SessionPlan {
  std::uint64_t plan_seq = 0;          ///< 1-based, per session
  std::uint64_t triggered_by_seq = 0;  ///< delta seq that fired the trigger
  PlanReason reason = PlanReason::kExplicit;
  Size makespan_before = 0;
  Size makespan_after = 0;
  std::vector<PlanMove> moves;
};

/// Solve hook: (instance, k, spec) -> result. The instance is the
/// session's live state in dense slot labels; the returned assignment
/// must be in the same labels (engine entry points qualify).
using SolveFn = std::function<RebalanceResult(
    const Instance&, std::int64_t, const solver::SolverSpec&)>;

/// Outcome of applying one delta.
struct StepResult {
  bool applied = false;
  std::string error;  ///< non-empty iff the delta was rejected
  /// Plans fired by this delta (a drain plus a trigger can emit two).
  std::vector<SessionPlan> plans;
};

/// Point-in-time session summary (wire type kSessionStatsOk).
struct SessionStats {
  std::uint64_t num_procs = 0;
  std::uint64_t num_jobs = 0;
  std::uint64_t deltas_applied = 0;
  std::uint64_t deltas_rejected = 0;
  std::uint64_t plans_emitted = 0;
  std::uint64_t moves_total = 0;
  std::uint64_t last_seq = 0;
  Size makespan = 0;
  Size lower_bound = 0;
  std::uint64_t digest = 0;
};

class ClusterSession {
 public:
  /// An empty session (no jobs, no processors). open() is the real entry
  /// point; the default exists so owners can hold a session as a movable
  /// slot (e.g. the server's per-reactor session tables).
  ClusterSession() = default;

  /// Opens a session from an initial instance (must pass lrb::validate)
  /// and a trigger config (must pass validate_trigger). Jobs get stable
  /// ids 0..n-1 and processors 0..m-1, matching their instance indices.
  [[nodiscard]] static std::optional<ClusterSession> open(
      const Instance& initial, const TriggerConfig& config,
      std::string* error);

  /// Applies delta `seq` (sequence numbers are assigned by the caller,
  /// start at 1, and must only move forward). Evaluates triggers and runs
  /// any resulting replan through `solve`. Deterministic given identical
  /// call sequences and solve functions.
  [[nodiscard]] StepResult step(const Delta& delta, std::uint64_t seq,
                                const SolveFn& solve);

  /// Makespan of the current assignment.
  [[nodiscard]] Size makespan() const;

  /// max(average_load_bound, max_job_bound) of the live state, recomputed
  /// via core/lower_bounds — the drift denominator of the imbalance
  /// trigger and the bound reported in every ack.
  [[nodiscard]] Size lower_bound() const;

  /// 64-bit state fingerprint: the wrapping sum of a mixed hash per job
  /// (id, size, move cost, processor id) and per processor id, finalized
  /// with the processor count, the job count and the makespan. The sum is
  /// order-independent, so the digest is a function of the state alone,
  /// not of the slot layout its history left behind. It is maintained on
  /// every state change, so this costs O(m) (the makespan), not O(n).
  /// Included in every ack so checkers compare state, not just plans.
  [[nodiscard]] std::uint64_t digest() const;

  /// digest() recomputed from the live state in O(n): the reference the
  /// incremental sum is tested against. Too slow for a per-delta check.
  [[nodiscard]] std::uint64_t rebuilt_digest() const;

  [[nodiscard]] SessionStats stats() const;

  [[nodiscard]] std::size_t num_jobs() const noexcept { return jobs_.size(); }
  [[nodiscard]] std::size_t num_procs() const noexcept {
    return procs_.size();
  }
  [[nodiscard]] const TriggerConfig& trigger() const noexcept {
    return config_;
  }

  /// The live state as an Instance in dense slot labels (jobs/processors
  /// in internal slot order). What replans solve; exposed for tests.
  [[nodiscard]] Instance snapshot() const;

 private:
  struct JobRec {
    std::uint64_t id = 0;
    Size size = 0;
    Cost move_cost = 1;
    std::size_t proc_slot = 0;
  };
  struct ProcRec {
    std::uint64_t id = 0;
    Size load = 0;
  };

  [[nodiscard]] std::string apply(const Delta& delta, StepResult* result,
                                  std::uint64_t seq);
  /// Least-loaded processor (ties: lowest id), optionally excluding one
  /// slot. Returns procs_.size() when every processor is excluded.
  [[nodiscard]] std::size_t least_loaded_slot(std::size_t exclude_slot) const;
  void remove_job_slot(std::size_t slot);
  void remove_proc_slot(std::size_t slot);
  /// The job's term in state_sum_; reads its processor's stable id.
  [[nodiscard]] std::uint64_t job_hash(const JobRec& job) const;
  /// Relocates one job to `target`, keeping loads and state_sum_ in step,
  /// and returns the move in stable ids.
  PlanMove move_job(JobRec& job, std::size_t target);
  /// Runs one bounded-move replan and applies + records the move diff.
  [[nodiscard]] SessionPlan replan(PlanReason reason, std::uint64_t seq,
                                   const SolveFn& solve);
  void evaluate_triggers(std::uint64_t seq, const SolveFn& solve,
                         StepResult* result);

  TriggerConfig config_;
  std::vector<JobRec> jobs_;    ///< dense slots; swap-removed on departure
  std::vector<ProcRec> procs_;  ///< dense slots; swap-removed on removal
  std::unordered_map<std::uint64_t, std::size_t> job_slots_;
  std::unordered_map<std::uint64_t, std::size_t> proc_slots_;
  /// Wrapping sum of job_hash over jobs_ and proc_hash over procs_ ids.
  std::uint64_t state_sum_ = 0;

  std::uint64_t deltas_applied_ = 0;
  std::uint64_t deltas_rejected_ = 0;
  std::uint64_t plans_emitted_ = 0;
  std::uint64_t moves_total_ = 0;
  std::uint64_t last_seq_ = 0;
  std::uint32_t deltas_since_plan_ = 0;
};

}  // namespace lrb::stream
