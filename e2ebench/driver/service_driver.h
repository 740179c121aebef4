// Drives a running lrb_serve through svc::Client and records, per request,
// when it was due, encoded, sent, answered and decoded, plus the reply
// bytes for the off-the-clock checks. Nothing here checks replies.
//
// Threads: an open-loop phase runs one sender and one receiver per
// connection (2 connections, 4 threads, the caller's included). A
// closed-loop phase runs one thread per connection. A session phase runs
// one thread per session (4). A Client is shared by its connection's
// sender and receiver only in the open loop, where the sender only writes
// to the socket and the receiver only reads from it and owns the receive
// buffer.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "svc/client.h"
#include "workloads.h"

namespace e2e {

struct SendRecord {
  std::int64_t due_ns = 0;  ///< scheduled send time (open loop only)
  std::int64_t encode_start_ns = 0;
  std::int64_t encode_end_ns = 0;
  std::int64_t send_start_ns = 0;
  std::int64_t send_end_ns = 0;
};

enum class ReplyStatus : std::uint8_t { kMissing, kOk, kShed, kError };

struct ReplyRecord {
  std::int64_t received_ns = 0;
  std::int64_t decoded_ns = 0;
  ReplyStatus status = ReplyStatus::kMissing;
  Size makespan = 0;
  std::size_t offset = 0;  ///< SolveOk payload inside ConnectionLog::arena
  std::uint32_t length = 0;
};

/// One connection's share of a solve phase. Request j on this connection
/// carries id first_id + j * stride.
struct ConnectionLog {
  std::uint64_t first_id = 0;
  std::uint64_t stride = 1;
  std::vector<SendRecord> sends;
  std::vector<ReplyRecord> replies;  ///< index j answers sends[j]
  std::string arena;                 ///< OK reply payloads back to back
  std::string send_error;
  std::string recv_error;

  [[nodiscard]] std::uint64_t id(std::size_t j) const {
    return first_id + j * stride;
  }
  [[nodiscard]] std::string_view reply(std::size_t j) const {
    return std::string_view(arena).substr(replies[j].offset,
                                          replies[j].length);
  }
};

struct SolvePhase {
  std::string name;
  bool open_loop = false;
  double rate = 0.0;        ///< offered requests/s (open loop)
  std::size_t window = 0;   ///< in flight per connection (closed loop)
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;  ///< end of the measuring window
  std::uint64_t next_id = 0;  ///< first request id after this phase
  std::vector<ConnectionLog> conns;

  [[nodiscard]] std::size_t count(ReplyStatus status) const;
  [[nodiscard]] std::size_t sent() const;
  /// First transport or protocol failure, or empty.
  [[nodiscard]] std::string transport_error() const;
};

/// Sends requests first_id, first_id+1, ... at `rate` requests/s, request
/// i due at start + i / rate, alternating connections, for `seconds`;
/// then waits for every reply.
[[nodiscard]] SolvePhase run_open_loop(std::vector<svc::Client>& clients,
                                       const SolveWorkload& workload,
                                       std::uint64_t first_id, double rate,
                                       double seconds, const char* name);

/// Keeps kClosedWindow requests in flight per connection until `seconds`
/// pass or ids reach `id_limit`; then waits for the replies in flight.
[[nodiscard]] SolvePhase run_closed_loop(std::vector<svc::Client>& clients,
                                         const SolveWorkload& workload,
                                         std::uint64_t first_id,
                                         std::uint64_t id_limit,
                                         double seconds, const char* name);

// ---------------------------------------------------------------------------

struct FrameRecord {
  std::size_t first_delta = 0;  ///< deltas [first_delta, first_delta+count)
  std::uint32_t count = 0;
  std::int64_t encode_start_ns = 0;
  std::int64_t encode_end_ns = 0;
  std::int64_t send_start_ns = 0;
  std::int64_t send_end_ns = 0;
  std::int64_t received_ns = 0;
  std::int64_t decoded_ns = 0;
  svc::MsgType type = svc::MsgType::kError;
  std::size_t offset = 0;  ///< ack payload inside SessionConnection::arena
  std::uint32_t length = 0;
  Size makespan = 0;
  Size lower_bound = 0;
  std::uint32_t applied = 0;
};

/// One streaming session on its own connection; frames of every phase
/// accumulate here in send order.
struct SessionConnection {
  const SessionInput* input = nullptr;
  svc::Client client;
  std::string open_ack;  ///< SessionOpenOk payload
  std::size_t next_delta = 0;
  std::uint64_t next_request_id = 1;
  std::vector<FrameRecord> frames;
  std::string arena;
  std::string error;

  [[nodiscard]] std::string_view ack(std::size_t f) const {
    return std::string_view(arena).substr(frames[f].offset,
                                          frames[f].length);
  }
};

struct SessionPhase {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::vector<std::size_t> first_frame;  ///< per session
  std::vector<std::size_t> end_frame;    ///< per session, exclusive
};

/// Sends every session's SessionOpen on its connection.
[[nodiscard]] bool open_sessions(std::vector<SessionConnection>& sessions,
                                 std::string* error);

/// Closed loop: each session sends its next kFrameDeltas-delta frame once
/// the previous ack arrived, until `seconds` pass or it sent `max_frames`.
[[nodiscard]] SessionPhase run_sessions(
    std::vector<SessionConnection>& sessions, double seconds,
    std::size_t max_frames, const char* name);

}  // namespace e2e
