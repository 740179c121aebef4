#include "verify.h"

#include "common.h"
#include "core/lower_bounds.h"
#include "solver/registry.h"
#include "stream/replay.h"

namespace e2e {

namespace {

struct SolveItem {
  const ConnectionLog* log = nullptr;
  std::size_t j = 0;
  std::size_t phase = 0;
};

/// The certified lower bound check/certify uses for a reply of `request`:
/// combined_lower_bound at the move budget the backend honours (k, or n
/// for backends bounded by something else), raised by the cost-budget
/// bound when the backend has a finite budget.
Size certified_lower_bound(const svc::SolveRequest& request) {
  const auto& backend = lrb::solver::descriptor(request.spec.backend);
  const auto n = static_cast<std::int64_t>(request.instance.num_jobs());
  Size bound = lrb::combined_lower_bound(
      request.instance, backend.respects_k ? std::min(request.k, n) : n);
  if (backend.budgeted && request.spec.params.budget != lrb::kInfCost) {
    bound = std::max(bound, lrb::budget_removal_bound(
                                request.instance, request.spec.params.budget));
  }
  return std::max<Size>(1, bound);
}

bool solve_reply_matches(const SolveWorkload& workload, std::uint64_t id,
                         std::string_view bytes) {
  return svc::encode_solve_reply_payload(workload.reference(id)) == bytes;
}

/// The SessionDelta ack the server must send for `frame`, rebuilt from the
/// serial replay transcript exactly as the server aggregates a frame.
std::string expected_ack(const stream::ReplayResult& replay,
                         std::uint64_t session_id, const FrameRecord& frame,
                         svc::MsgType* type) {
  svc::SessionDeltaReply reply;
  reply.session_id = session_id;
  for (std::size_t i = 0; i < frame.count; ++i) {
    const stream::ReplayStep& step = replay.steps[frame.first_delta + i];
    fold_step(reply, step.applied, step.error, step.plans);
  }
  const stream::ReplayStep& last =
      replay.steps[frame.first_delta + frame.count - 1];
  reply.last_seq = last.seq;
  reply.makespan = last.makespan;
  reply.lower_bound = last.lower_bound;
  reply.state_digest = last.digest;
  *type = svc::session_reply_type(reply);
  return svc::encode_session_delta_reply(reply);
}

std::string flip_one_byte(std::string_view bytes) {
  std::string corrupted(bytes);
  corrupted[corrupted.size() / 2] =
      static_cast<char>(corrupted[corrupted.size() / 2] ^ 0x01);
  return corrupted;
}

}  // namespace

void fold_step(svc::SessionDeltaReply& reply, bool applied,
               const std::string& error,
               const std::vector<stream::SessionPlan>& plans) {
  if (applied) {
    ++reply.applied;
  } else {
    ++reply.rejected;
    if (reply.first_error.empty()) reply.first_error = error;
  }
  reply.plans.insert(reply.plans.end(), plans.begin(), plans.end());
}

CheckResult check_solve_phases(SolveWorkload& workload,
                               const std::vector<const SolvePhase*>& phases,
                               std::size_t threads,
                               std::vector<double>* ratio_means) {
  std::vector<SolveItem> items;
  std::vector<std::uint64_t> ids;
  for (std::size_t p = 0; p < phases.size(); ++p) {
    for (const ConnectionLog& log : phases[p]->conns) {
      for (std::size_t j = 0; j < log.sends.size(); ++j) {
        if (log.replies[j].status != ReplyStatus::kOk) continue;
        items.push_back({&log, j, p});
        ids.push_back(log.id(j));
      }
    }
  }
  workload.prepare_references(ids, threads);
  std::vector<char> matched(items.size(), 0);
  std::vector<double> ratio(items.size(), 0.0);
  parallel_for_index(items.size(), threads, [&](std::size_t i) {
    const SolveItem& item = items[i];
    const std::uint64_t id = item.log->id(item.j);
    matched[i] = solve_reply_matches(workload, id, item.log->reply(item.j));
    const svc::SolveRequest request = workload.request(id);
    const Size bound = certified_lower_bound(request);
    ratio[i] = static_cast<double>(item.log->replies[item.j].makespan) /
               static_cast<double>(bound);
  });

  CheckResult result;
  result.compared = items.size();
  std::vector<double> sums(phases.size(), 0.0);
  std::vector<std::size_t> counts(phases.size(), 0);
  for (std::size_t i = 0; i < items.size(); ++i) {
    sums[items[i].phase] += ratio[i];
    ++counts[items[i].phase];
    if (matched[i]) continue;
    if (result.mismatches++ == 0) {
      result.first_mismatch =
          "Solve reply for request " +
          std::to_string(items[i].log->id(items[i].j)) + " in phase " +
          phases[items[i].phase]->name +
          " differs from cached_serial_reference";
    }
  }
  ratio_means->assign(phases.size(), 0.0);
  for (std::size_t p = 0; p < phases.size(); ++p) {
    if (counts[p] > 0) {
      (*ratio_means)[p] = sums[p] / static_cast<double>(counts[p]);
    }
  }
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (!matched[i]) continue;
    const std::uint64_t id = items[i].log->id(items[i].j);
    result.selftest_caught = !solve_reply_matches(
        workload, id, flip_one_byte(items[i].log->reply(items[i].j)));
    break;
  }
  return result;
}

CheckResult check_sessions(const std::vector<const SessionConnection*>& sessions,
                           std::size_t transcript_frames,
                           std::size_t threads) {
  std::vector<CheckResult> per_session(sessions.size());
  parallel_for_index(sessions.size(), threads, [&](std::size_t s) {
    const SessionConnection& conn = *sessions[s];
    const SessionInput& input = *conn.input;
    CheckResult& out = per_session[s];
    auto mismatch = [&](const std::string& where, const char* oracle) {
      if (out.mismatches++ == 0) {
        out.first_mismatch = "session " + std::to_string(input.session_id) +
                             " " + where + " differs from " + oracle;
      }
    };

    // The whole stream against a mirror session stepped frame by frame.
    std::string error;
    auto mirror =
        stream::ClusterSession::open(input.initial, input.trigger, &error);
    if (!mirror) {
      mismatch("open (mirror failed: " + error + ")", "the mirror");
      return;
    }
    const stream::SolveFn solve = stream::serial_reference_solver(true);
    svc::SessionOpenReply open;
    open.session_id = input.session_id;
    open.makespan = mirror->makespan();
    open.lower_bound = mirror->lower_bound();
    open.state_digest = mirror->digest();
    ++out.compared;
    if (svc::encode_session_open_reply(open) != conn.open_ack) {
      mismatch("open ack", "the serial mirror");
    }
    for (std::size_t f = 0; f < conn.frames.size(); ++f) {
      const FrameRecord& frame = conn.frames[f];
      svc::SessionDeltaReply reply;
      reply.session_id = input.session_id;
      for (std::size_t i = 0; i < frame.count; ++i) {
        const std::size_t d = frame.first_delta + i;
        const stream::StepResult step =
            mirror->step(input.deltas[d], d + 1, solve);
        fold_step(reply, step.applied, step.error, step.plans);
      }
      reply.last_seq = frame.first_delta + frame.count;
      reply.makespan = mirror->makespan();
      reply.lower_bound = mirror->lower_bound();
      reply.state_digest = mirror->digest();
      const std::string want = svc::encode_session_delta_reply(reply);
      ++out.compared;
      if (svc::session_reply_type(reply) != frame.type || want != conn.ack(f)) {
        mismatch("ack of frame " + std::to_string(f), "the serial mirror");
      }
      if (f == 0) out.selftest_caught = flip_one_byte(conn.ack(f)) != want;
    }

    // The leading frames once more against the replay transcript itself.
    const std::size_t frames = std::min(transcript_frames, conn.frames.size());
    if (frames == 0) return;
    const FrameRecord& last = conn.frames[frames - 1];
    stream::ReplayOptions options;
    options.cached = true;
    const stream::ReplayResult replay = stream::replay_serial_reference(
        input.initial, input.trigger,
        std::span<const stream::Delta>(input.deltas.data(),
                                       last.first_delta + last.count),
        options);
    if (!replay.ok) {
      mismatch("open (reference failed: " + replay.error + ")",
               "replay_serial_reference");
      return;
    }
    for (std::size_t f = 0; f < frames; ++f) {
      svc::MsgType type = svc::MsgType::kError;
      const std::string want =
          expected_ack(replay, input.session_id, conn.frames[f], &type);
      if (type != conn.frames[f].type || want != conn.ack(f)) {
        mismatch("ack of frame " + std::to_string(f),
                 "replay_serial_reference");
      }
    }
  });
  CheckResult result;
  result.selftest_caught = !sessions.empty();
  for (const CheckResult& r : per_session) {
    result.compared += r.compared;
    if (r.mismatches > 0 && result.mismatches == 0) {
      result.first_mismatch = r.first_mismatch;
    }
    result.mismatches += r.mismatches;
    result.selftest_caught = result.selftest_caught && r.selftest_caught;
  }
  return result;
}

}  // namespace e2e
