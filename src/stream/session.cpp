#include "stream/session.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>
#include <limits>

#include "core/lower_bounds.h"
#include "solver/registry.h"
#include "util/packed_key.h"

namespace lrb::stream {

namespace {

// Leading hash words that keep job terms, processor terms and the sealed
// digest in separate domains.
constexpr std::uint64_t kJobTag = 1;
constexpr std::uint64_t kProcTag = 2;
constexpr std::uint64_t kDigestTag = 3;

std::uint64_t proc_hash(std::uint64_t id) {
  const std::uint64_t words[] = {kProcTag, id};
  return hash_words(words, std::size(words));
}

std::uint64_t seal(std::uint64_t state_sum, std::size_t num_procs,
                   std::size_t num_jobs, Size makespan) {
  const std::uint64_t words[] = {kDigestTag, state_sum, num_procs, num_jobs,
                                 static_cast<std::uint64_t>(makespan)};
  return hash_words(words, std::size(words));
}

}  // namespace

const char* delta_kind_name(DeltaKind kind) {
  switch (kind) {
    case DeltaKind::kJobArrive:
      return "arrive";
    case DeltaKind::kJobDepart:
      return "depart";
    case DeltaKind::kJobUpdate:
      return "update";
    case DeltaKind::kProcAdd:
      return "proc-add";
    case DeltaKind::kProcRemove:
      return "proc-remove";
    case DeltaKind::kProcDrain:
      return "proc-drain";
    case DeltaKind::kReplan:
      return "replan";
  }
  return "?";
}

const char* plan_reason_name(PlanReason reason) {
  switch (reason) {
    case PlanReason::kImbalance:
      return "imbalance";
    case PlanReason::kDeltaCount:
      return "delta-count";
    case PlanReason::kExplicit:
      return "explicit";
    case PlanReason::kDrain:
      return "drain";
  }
  return "?";
}

std::optional<std::string> validate_trigger(const TriggerConfig& config) {
  if (config.move_budget == 0 &&
      !(config.move_frac > 0.0 && config.move_frac <= 1.0)) {
    return "move_frac must be in (0, 1] when move_budget is 0";
  }
  if (!(config.imbalance_ratio >= 0.0) ||
      !std::isfinite(config.imbalance_ratio)) {
    return "imbalance_ratio must be finite and >= 0";
  }
  if (const auto problem = solver::validate_spec(config.spec)) {
    return problem;
  }
  return std::nullopt;
}

std::optional<ClusterSession> ClusterSession::open(const Instance& initial,
                                                  const TriggerConfig& config,
                                                  std::string* error) {
  auto fail = [&](std::string what) -> std::optional<ClusterSession> {
    if (error != nullptr) *error = std::move(what);
    return std::nullopt;
  };
  if (const auto problem = validate(initial)) return fail(*problem);
  if (const auto problem = validate_trigger(config)) return fail(*problem);
  ClusterSession session;
  session.config_ = config;
  session.procs_.reserve(initial.num_procs);
  for (ProcId p = 0; p < initial.num_procs; ++p) {
    session.procs_.push_back({p, 0});
    session.proc_slots_.emplace(p, p);
    session.state_sum_ += proc_hash(p);
  }
  const std::size_t n = initial.num_jobs();
  session.jobs_.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    JobRec job;
    job.id = j;
    job.size = initial.sizes[j];
    job.move_cost = initial.move_costs[j];
    job.proc_slot = initial.initial[j];
    session.procs_[job.proc_slot].load += job.size;
    session.state_sum_ += session.job_hash(job);
    session.job_slots_.emplace(job.id, session.jobs_.size());
    session.jobs_.push_back(job);
  }
  return session;
}

Size ClusterSession::makespan() const {
  Size makespan = 0;
  for (const ProcRec& proc : procs_) makespan = std::max(makespan, proc.load);
  return makespan;
}

Size ClusterSession::lower_bound() const {
  const Instance live = snapshot();
  return std::max(average_load_bound(live), max_job_bound(live));
}

Instance ClusterSession::snapshot() const {
  Instance live;
  live.num_procs = static_cast<ProcId>(procs_.size());
  const std::size_t n = jobs_.size();
  live.sizes.reserve(n);
  live.move_costs.reserve(n);
  live.initial.reserve(n);
  for (const JobRec& job : jobs_) {
    live.sizes.push_back(job.size);
    live.move_costs.push_back(job.move_cost);
    live.initial.push_back(static_cast<ProcId>(job.proc_slot));
  }
  return live;
}

std::uint64_t ClusterSession::job_hash(const JobRec& job) const {
  const std::uint64_t words[] = {kJobTag, job.id,
                                 static_cast<std::uint64_t>(job.size),
                                 static_cast<std::uint64_t>(job.move_cost),
                                 procs_[job.proc_slot].id};
  return hash_words(words, std::size(words));
}

std::uint64_t ClusterSession::digest() const {
  return seal(state_sum_, procs_.size(), jobs_.size(), makespan());
}

std::uint64_t ClusterSession::rebuilt_digest() const {
  std::uint64_t sum = 0;
  for (const ProcRec& proc : procs_) sum += proc_hash(proc.id);
  for (const JobRec& job : jobs_) sum += job_hash(job);
  return seal(sum, procs_.size(), jobs_.size(), makespan());
}

SessionStats ClusterSession::stats() const {
  SessionStats stats;
  stats.num_procs = procs_.size();
  stats.num_jobs = jobs_.size();
  stats.deltas_applied = deltas_applied_;
  stats.deltas_rejected = deltas_rejected_;
  stats.plans_emitted = plans_emitted_;
  stats.moves_total = moves_total_;
  stats.last_seq = last_seq_;
  stats.makespan = makespan();
  stats.lower_bound = lower_bound();
  stats.digest = digest();
  return stats;
}

std::size_t ClusterSession::least_loaded_slot(std::size_t exclude_slot) const {
  std::size_t best = procs_.size();
  for (std::size_t slot = 0; slot < procs_.size(); ++slot) {
    if (slot == exclude_slot) continue;
    if (best == procs_.size() || procs_[slot].load < procs_[best].load ||
        (procs_[slot].load == procs_[best].load &&
         procs_[slot].id < procs_[best].id)) {
      best = slot;
    }
  }
  return best;
}

void ClusterSession::remove_job_slot(std::size_t slot) {
  job_slots_.erase(jobs_[slot].id);
  const std::size_t last = jobs_.size() - 1;
  if (slot != last) {
    jobs_[slot] = jobs_[last];
    job_slots_[jobs_[slot].id] = slot;
  }
  jobs_.pop_back();
}

void ClusterSession::remove_proc_slot(std::size_t slot) {
  assert(procs_[slot].load == 0);
  state_sum_ -= proc_hash(procs_[slot].id);
  proc_slots_.erase(procs_[slot].id);
  const std::size_t last = procs_.size() - 1;
  if (slot != last) {
    procs_[slot] = procs_[last];
    proc_slots_[procs_[slot].id] = slot;
    // Jobs referencing the moved processor follow it to its new slot.
    for (JobRec& job : jobs_) {
      if (job.proc_slot == last) job.proc_slot = slot;
    }
  }
  procs_.pop_back();
}

PlanMove ClusterSession::move_job(JobRec& job, std::size_t target) {
  const PlanMove move{job.id, procs_[job.proc_slot].id, procs_[target].id};
  state_sum_ -= job_hash(job);
  procs_[job.proc_slot].load -= job.size;
  procs_[target].load += job.size;
  job.proc_slot = target;
  state_sum_ += job_hash(job);
  return move;
}

std::string ClusterSession::apply(const Delta& delta, StepResult* result,
                                  std::uint64_t seq) {
  switch (delta.kind) {
    case DeltaKind::kJobArrive: {
      if (delta.size < 0) return "negative job size";
      if (delta.move_cost < 0) return "negative move cost";
      if (job_slots_.count(delta.id) != 0) {
        return "job id already exists: " + std::to_string(delta.id);
      }
      std::size_t target;
      if (delta.proc == kAutoPlace) {
        target = least_loaded_slot(procs_.size());
      } else {
        const auto it = proc_slots_.find(delta.proc);
        if (it == proc_slots_.end()) {
          return "unknown processor: " + std::to_string(delta.proc);
        }
        target = it->second;
      }
      JobRec job;
      job.id = delta.id;
      job.size = delta.size;
      job.move_cost = delta.move_cost;
      job.proc_slot = target;
      procs_[target].load += job.size;
      state_sum_ += job_hash(job);
      job_slots_.emplace(job.id, jobs_.size());
      jobs_.push_back(job);
      return {};
    }
    case DeltaKind::kJobDepart: {
      const auto it = job_slots_.find(delta.id);
      if (it == job_slots_.end()) {
        return "unknown job: " + std::to_string(delta.id);
      }
      const std::size_t slot = it->second;
      procs_[jobs_[slot].proc_slot].load -= jobs_[slot].size;
      state_sum_ -= job_hash(jobs_[slot]);
      remove_job_slot(slot);
      return {};
    }
    case DeltaKind::kJobUpdate: {
      if (delta.size < 0) return "negative job size";
      const auto it = job_slots_.find(delta.id);
      if (it == job_slots_.end()) {
        return "unknown job: " + std::to_string(delta.id);
      }
      JobRec& job = jobs_[it->second];
      procs_[job.proc_slot].load += delta.size - job.size;
      state_sum_ -= job_hash(job);
      job.size = delta.size;
      state_sum_ += job_hash(job);
      return {};
    }
    case DeltaKind::kProcAdd: {
      if (delta.id == kAutoPlace) return "reserved processor id";
      if (proc_slots_.count(delta.id) != 0) {
        return "processor id already exists: " + std::to_string(delta.id);
      }
      proc_slots_.emplace(delta.id, procs_.size());
      procs_.push_back({delta.id, 0});
      state_sum_ += proc_hash(delta.id);
      return {};
    }
    case DeltaKind::kProcRemove: {
      const auto it = proc_slots_.find(delta.id);
      if (it == proc_slots_.end()) {
        return "unknown processor: " + std::to_string(delta.id);
      }
      if (procs_[it->second].load != 0) {
        return "processor not empty (use proc-drain): " +
               std::to_string(delta.id);
      }
      if (procs_.size() == 1) return "cannot remove the last processor";
      remove_proc_slot(it->second);
      return {};
    }
    case DeltaKind::kProcDrain: {
      const auto it = proc_slots_.find(delta.id);
      if (it == proc_slots_.end()) {
        return "unknown processor: " + std::to_string(delta.id);
      }
      if (procs_.size() == 1) return "cannot drain the last processor";
      const std::size_t victim = it->second;
      SessionPlan plan;
      plan.reason = PlanReason::kDrain;
      plan.triggered_by_seq = seq;
      plan.makespan_before = makespan();
      // Evacuation order: largest job first (ties: lowest id), each to the
      // least-loaded surviving processor (ties: lowest id). Deterministic,
      // and ignores the move budget: a drain is an operational necessity,
      // not an optimization (docs/streaming.md).
      std::vector<std::size_t> evict;
      for (std::size_t slot = 0; slot < jobs_.size(); ++slot) {
        if (jobs_[slot].proc_slot == victim) evict.push_back(slot);
      }
      std::sort(evict.begin(), evict.end(), [&](std::size_t a, std::size_t b) {
        if (jobs_[a].size != jobs_[b].size) {
          return jobs_[a].size > jobs_[b].size;
        }
        return jobs_[a].id < jobs_[b].id;
      });
      for (const std::size_t slot : evict) {
        plan.moves.push_back(
            move_job(jobs_[slot], least_loaded_slot(victim)));
      }
      plan.makespan_after = makespan();
      remove_proc_slot(victim);
      if (!plan.moves.empty()) {
        plan.plan_seq = ++plans_emitted_;
        moves_total_ += plan.moves.size();
        deltas_since_plan_ = 0;
        result->plans.push_back(std::move(plan));
      }
      return {};
    }
    case DeltaKind::kReplan:
      return {};  // handled by step()
  }
  return "unknown delta kind";
}

SessionPlan ClusterSession::replan(PlanReason reason, std::uint64_t seq,
                                   const SolveFn& solve) {
  SessionPlan plan;
  plan.reason = reason;
  plan.triggered_by_seq = seq;
  plan.makespan_before = makespan();
  const Instance live = snapshot();
  std::int64_t k;
  if (config_.move_budget > 0) {
    k = config_.move_budget;
  } else {
    k = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(
               config_.move_frac * static_cast<double>(jobs_.size())));
  }
  const RebalanceResult result = solve(live, k, config_.spec);
  assert(result.assignment.size() == jobs_.size());
  for (std::size_t slot = 0; slot < jobs_.size(); ++slot) {
    const std::size_t target = result.assignment[slot];
    if (target == jobs_[slot].proc_slot) continue;
    plan.moves.push_back(move_job(jobs_[slot], target));
  }
  plan.makespan_after = makespan();
  plan.plan_seq = ++plans_emitted_;
  moves_total_ += plan.moves.size();
  deltas_since_plan_ = 0;
  return plan;
}

void ClusterSession::evaluate_triggers(std::uint64_t seq, const SolveFn& solve,
                                       StepResult* result) {
  if (config_.delta_count > 0 && deltas_since_plan_ >= config_.delta_count) {
    result->plans.push_back(replan(PlanReason::kDeltaCount, seq, solve));
    return;
  }
  if (config_.imbalance_ratio > 0.0) {
    const Size bound = std::max<Size>(lower_bound(), 1);
    if (static_cast<double>(makespan()) >
        config_.imbalance_ratio * static_cast<double>(bound)) {
      result->plans.push_back(replan(PlanReason::kImbalance, seq, solve));
    }
  }
}

StepResult ClusterSession::step(const Delta& delta, std::uint64_t seq,
                                const SolveFn& solve) {
  StepResult result;
  last_seq_ = seq;
  if (delta.kind == DeltaKind::kReplan) {
    ++deltas_applied_;
    ++deltas_since_plan_;
    result.applied = true;
    result.plans.push_back(replan(PlanReason::kExplicit, seq, solve));
    return result;
  }
  std::string error = apply(delta, &result, seq);
  if (!error.empty()) {
    ++deltas_rejected_;
    result.error = std::move(error);
    return result;
  }
  ++deltas_applied_;
  ++deltas_since_plan_;
  result.applied = true;
  evaluate_triggers(seq, solve, &result);
  return result;
}

}  // namespace lrb::stream
