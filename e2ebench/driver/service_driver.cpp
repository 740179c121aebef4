#include "service_driver.h"

#include <sys/prctl.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "common.h"

namespace e2e {

namespace {

constexpr std::int64_t kPollNs = 20'000'000;           // receiver wake-up
constexpr std::int64_t kReplyGraceNs = 30'000'000'000;  // after the window

Clock::time_point at_ns(std::int64_t ns) {
  return Clock::time_point(std::chrono::nanoseconds(ns));
}

/// Files one reply frame under its request; false (with recv_error set) on
/// a protocol violation.
bool record_reply(ConnectionLog& log, const svc::FrameHeader& header,
                  const std::string& payload, std::int64_t received) {
  const std::uint64_t id = header.request_id;
  if (id < log.first_id || (id - log.first_id) % log.stride != 0) {
    log.recv_error = "reply for foreign request id " + std::to_string(id);
    return false;
  }
  const std::size_t j = (id - log.first_id) / log.stride;
  if (j >= log.replies.size() ||
      log.replies[j].status != ReplyStatus::kMissing) {
    log.recv_error = "unexpected or duplicate reply id " + std::to_string(id);
    return false;
  }
  ReplyRecord& rec = log.replies[j];
  rec.received_ns = received;
  if (header.type == svc::MsgType::kSolveOk) {
    std::string error;
    const auto result = svc::decode_solve_reply_payload(payload, &error);
    rec.decoded_ns = now_ns();
    rec.status = result ? ReplyStatus::kOk : ReplyStatus::kError;
    rec.makespan = result ? result->makespan : 0;
    rec.offset = log.arena.size();
    rec.length = static_cast<std::uint32_t>(payload.size());
    log.arena += payload;
    return true;
  }
  rec.decoded_ns = now_ns();
  rec.status = ReplyStatus::kError;
  if (header.type == svc::MsgType::kError) {
    const auto reply = svc::decode_error_payload(payload);
    if (reply && (reply->code == svc::ErrorCode::kOverloaded ||
                  reply->code == svc::ErrorCode::kDeadlineExceeded)) {
      rec.status = ReplyStatus::kShed;
    } else if (log.recv_error.empty()) {
      log.recv_error = "server error " +
                       std::string(reply ? svc::error_code_name(reply->code)
                                         : "(malformed)") +
                       (reply ? ": " + reply->text : std::string());
    }
  }
  return true;
}

void open_loop_sender(svc::Client& client, const SolveWorkload& workload,
                      ConnectionLog& log, std::size_t conn,
                      std::size_t conns, std::int64_t start, double period_ns,
                      std::size_t count, std::atomic<std::size_t>& sent,
                      std::atomic<bool>& done) {
  // Wake within ~1 us of each due time instead of the default 50 us slack.
  ::prctl(PR_SET_TIMERSLACK, 1000UL);
  std::string scratch;
  for (std::size_t j = 0; j < count; ++j) {
    SendRecord rec;
    rec.due_ns = start + static_cast<std::int64_t>(std::llround(
                             static_cast<double>(j * conns + conn) *
                             period_ns));
    // Build the frame before its due time so generation is never late.
    rec.encode_start_ns = now_ns();
    const std::string_view frame = workload.frame(log.id(j), scratch);
    rec.encode_end_ns = now_ns();
    std::this_thread::sleep_until(at_ns(rec.due_ns));
    rec.send_start_ns = now_ns();
    std::string error;
    const bool ok = client.send_bytes(frame, &error);
    rec.send_end_ns = now_ns();
    log.sends.push_back(rec);
    sent.store(j + 1, std::memory_order_release);
    if (!ok) {
      log.send_error = "send: " + error;
      break;
    }
  }
  done.store(true, std::memory_order_release);
}

void open_loop_receiver(svc::Client& client, ConnectionLog& log,
                        std::int64_t give_up,
                        const std::atomic<std::size_t>& sent,
                        const std::atomic<bool>& done) {
  std::size_t received = 0;
  svc::FrameHeader header;
  std::string payload;
  for (;;) {
    const bool finished = done.load(std::memory_order_acquire);
    if (finished && received >= sent.load(std::memory_order_acquire)) return;
    const std::int64_t now = now_ns();
    if (now > give_up) {
      log.recv_error = "replies still missing 30 s after the window";
      return;
    }
    std::string error;
    bool timed_out = false;
    if (!client.recv_frame_until(&header, &payload, at_ns(now + kPollNs),
                                 &error, &timed_out)) {
      if (timed_out) continue;
      log.recv_error = "recv: " + error;
      return;
    }
    if (!record_reply(log, header, payload, now_ns())) return;
    ++received;
  }
}

void closed_loop_connection(svc::Client& client, const SolveWorkload& workload,
                            ConnectionLog& log, std::int64_t end,
                            std::uint64_t id_limit) {
  std::string scratch;
  std::size_t inflight = 0;
  svc::FrameHeader header;
  std::string payload;
  for (;;) {
    while (inflight < kClosedWindow && now_ns() < end &&
           log.id(log.sends.size()) < id_limit) {
      SendRecord rec;
      rec.encode_start_ns = now_ns();
      const std::string_view frame =
          workload.frame(log.id(log.sends.size()), scratch);
      rec.encode_end_ns = rec.send_start_ns = now_ns();
      std::string error;
      const bool ok = client.send_bytes(frame, &error);
      rec.send_end_ns = now_ns();
      log.sends.push_back(rec);
      log.replies.emplace_back();
      if (!ok) {
        log.send_error = "send: " + error;
        return;
      }
      ++inflight;
    }
    if (inflight == 0) return;
    std::string error;
    if (!client.recv_frame_until(&header, &payload,
                                 at_ns(now_ns() + kReplyGraceNs), &error)) {
      log.recv_error = "recv: " + error;
      return;
    }
    if (!record_reply(log, header, payload, now_ns())) return;
    --inflight;
  }
}

SolvePhase make_phase(const char* name, bool open_loop, std::size_t conns,
                      std::uint64_t first_id) {
  SolvePhase phase;
  phase.name = name;
  phase.open_loop = open_loop;
  phase.conns.resize(conns);
  for (std::size_t c = 0; c < conns; ++c) {
    phase.conns[c].first_id = first_id + c;
    phase.conns[c].stride = conns;
  }
  return phase;
}

void finish_ids(SolvePhase& phase) {
  phase.next_id = 0;
  for (const ConnectionLog& log : phase.conns) {
    phase.next_id = std::max(phase.next_id, log.id(log.sends.size()));
  }
}

}  // namespace

std::size_t SolvePhase::count(ReplyStatus status) const {
  std::size_t n = 0;
  for (const ConnectionLog& log : conns) {
    for (std::size_t j = 0; j < log.sends.size(); ++j) {
      if (log.replies[j].status == status) ++n;
    }
  }
  return n;
}

std::size_t SolvePhase::sent() const {
  std::size_t n = 0;
  for (const ConnectionLog& log : conns) n += log.sends.size();
  return n;
}

std::string SolvePhase::transport_error() const {
  for (const ConnectionLog& log : conns) {
    if (!log.send_error.empty()) return log.send_error;
    if (!log.recv_error.empty()) return log.recv_error;
  }
  return {};
}

SolvePhase run_open_loop(std::vector<svc::Client>& clients,
                         const SolveWorkload& workload, std::uint64_t first_id,
                         double rate, double seconds, const char* name) {
  const std::size_t conns = clients.size();
  SolvePhase phase = make_phase(name, true, conns, first_id);
  phase.rate = rate;
  const double period_ns = 1e9 / rate;
  const auto total = static_cast<std::size_t>(std::ceil(seconds * rate));
  std::vector<std::size_t> counts(conns);
  for (std::size_t c = 0; c < conns; ++c) {
    counts[c] = total / conns + (c < total % conns ? 1 : 0);
    const std::uint64_t room =
        workload.limit() > phase.conns[c].first_id
            ? (workload.limit() - phase.conns[c].first_id + conns - 1) / conns
            : 0;
    counts[c] = std::min<std::size_t>(counts[c], room);
    phase.conns[c].sends.reserve(counts[c]);
    phase.conns[c].replies.resize(counts[c]);
  }
  std::vector<std::atomic<std::size_t>> sent(conns);
  std::vector<std::atomic<bool>> done(conns);
  for (std::size_t c = 0; c < conns; ++c) {
    sent[c] = 0;
    done[c] = false;
  }
  // Leave time to start the threads before the first due time.
  phase.start_ns = now_ns() + 2'000'000;
  phase.end_ns = phase.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t give_up = phase.end_ns + kReplyGraceNs;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back(open_loop_sender, std::ref(clients[c]),
                         std::cref(workload), std::ref(phase.conns[c]), c,
                         conns, phase.start_ns, period_ns, counts[c],
                         std::ref(sent[c]), std::ref(done[c]));
  }
  for (std::size_t c = 1; c < conns; ++c) {
    threads.emplace_back(open_loop_receiver, std::ref(clients[c]),
                         std::ref(phase.conns[c]), give_up, std::cref(sent[c]),
                         std::cref(done[c]));
  }
  open_loop_receiver(clients[0], phase.conns[0], give_up, sent[0], done[0]);
  for (auto& t : threads) t.join();
  for (ConnectionLog& log : phase.conns) log.replies.resize(log.sends.size());
  finish_ids(phase);
  return phase;
}

SolvePhase run_closed_loop(std::vector<svc::Client>& clients,
                           const SolveWorkload& workload,
                           std::uint64_t first_id, std::uint64_t id_limit,
                           double seconds, const char* name) {
  const std::size_t conns = clients.size();
  SolvePhase phase = make_phase(name, false, conns, first_id);
  phase.window = kClosedWindow;
  id_limit = std::min(id_limit, workload.limit());
  phase.start_ns = now_ns();
  phase.end_ns = phase.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (std::size_t c = 1; c < conns; ++c) {
    threads.emplace_back(closed_loop_connection, std::ref(clients[c]),
                         std::cref(workload), std::ref(phase.conns[c]),
                         phase.end_ns, id_limit);
  }
  closed_loop_connection(clients[0], workload, phase.conns[0], phase.end_ns,
                         id_limit);
  for (auto& t : threads) t.join();
  // A count-bounded phase (the warm-up) ends when its last reply lands.
  std::int64_t last = phase.start_ns;
  for (const ConnectionLog& log : phase.conns) {
    for (const ReplyRecord& rec : log.replies) {
      last = std::max(last, rec.received_ns);
    }
  }
  phase.end_ns = std::min(phase.end_ns, last);
  finish_ids(phase);
  return phase;
}

// ---------------------------------------------------------------------------

bool open_sessions(std::vector<SessionConnection>& sessions,
                   std::string* error) {
  for (SessionConnection& s : sessions) {
    svc::SessionOpenRequest request;
    request.session_id = s.input->session_id;
    request.trigger = s.input->trigger;
    request.instance = s.input->initial;
    svc::FrameHeader header;
    if (!s.client.call(svc::MsgType::kSessionOpen, s.next_request_id++,
                       svc::encode_session_open_request(request), &header,
                       &s.open_ack, error)) {
      return false;
    }
    if (header.type != svc::MsgType::kSessionOpenOk) {
      *error = "SessionOpen was not accepted";
      return false;
    }
  }
  return true;
}

namespace {

void session_loop(SessionConnection& s, std::int64_t end,
                  std::size_t max_frames) {
  const std::vector<stream::Delta>& deltas = s.input->deltas;
  svc::FrameHeader header;
  std::string payload;
  for (std::size_t f = 0; f < max_frames && now_ns() < end; ++f) {
    if (s.next_delta + kFrameDeltas > deltas.size()) {
      s.error = "delta trace exhausted";
      return;
    }
    FrameRecord rec;
    rec.first_delta = s.next_delta;
    rec.count = static_cast<std::uint32_t>(kFrameDeltas);
    rec.encode_start_ns = now_ns();
    svc::SessionDeltaRequest request;
    request.session_id = s.input->session_id;
    request.first_seq = s.next_delta + 1;
    request.deltas.assign(
        deltas.begin() + static_cast<std::ptrdiff_t>(s.next_delta),
        deltas.begin() + static_cast<std::ptrdiff_t>(s.next_delta +
                                                     kFrameDeltas));
    const std::string frame = svc::encode_session_delta_request(request);
    rec.encode_end_ns = rec.send_start_ns = now_ns();
    const std::uint64_t id = s.next_request_id++;
    std::string error;
    if (!s.client.send_frame(svc::MsgType::kSessionDelta, id, frame,
                             &error)) {
      s.error = "send: " + error;
      return;
    }
    rec.send_end_ns = now_ns();
    if (!s.client.recv_frame_until(&header, &payload,
                                   at_ns(now_ns() + kReplyGraceNs), &error)) {
      s.error = "recv: " + error;
      return;
    }
    rec.received_ns = now_ns();
    rec.type = header.type;
    if (header.request_id != id) {
      s.error = "ack for the wrong request id";
      return;
    }
    if (header.type != svc::MsgType::kSessionDeltaOk &&
        header.type != svc::MsgType::kSessionPlan) {
      s.error = "SessionDelta answered with a non-ack frame";
      return;
    }
    const auto ack = svc::decode_session_delta_reply(payload, &error);
    rec.decoded_ns = now_ns();
    if (!ack) {
      s.error = "bad ack: " + error;
      return;
    }
    rec.makespan = ack->makespan;
    rec.lower_bound = ack->lower_bound;
    rec.applied = ack->applied;
    rec.offset = s.arena.size();
    rec.length = static_cast<std::uint32_t>(payload.size());
    s.arena += payload;
    s.frames.push_back(rec);
    s.next_delta += kFrameDeltas;
  }
}

}  // namespace

SessionPhase run_sessions(std::vector<SessionConnection>& sessions,
                          double seconds, std::size_t max_frames,
                          const char* name) {
  SessionPhase phase;
  phase.name = name;
  for (const SessionConnection& s : sessions) {
    phase.first_frame.push_back(s.frames.size());
  }
  phase.start_ns = now_ns();
  phase.end_ns = phase.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (std::size_t i = 1; i < sessions.size(); ++i) {
    threads.emplace_back(session_loop, std::ref(sessions[i]), phase.end_ns,
                         max_frames);
  }
  session_loop(sessions[0], phase.end_ns, max_frames);
  for (auto& t : threads) t.join();
  std::int64_t last = phase.start_ns;
  for (const SessionConnection& s : sessions) {
    phase.end_frame.push_back(s.frames.size());
    if (!s.frames.empty()) last = std::max(last, s.frames.back().received_ns);
  }
  phase.end_ns = std::min(phase.end_ns, last);
  return phase;
}

}  // namespace e2e
