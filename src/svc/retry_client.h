// ResilientClient: the one retrying client core around svc::Client. It
// carries both the one-shot Solve (solve) and the wire-v2 session calls
// (call, driven by run_session_stream in svc/session_client.h).
//
// call() resends one request frame — same request id, same bytes — until
// it gets an answer. It is only ever used for requests whose resend is
// harmless: Solve is idempotent, and a resent session frame is answered
// from the server's exactly-once dedup (docs/streaming.md).
//
// Failure handling:
//   * transport errors (send/recv failure, EOF, torn or corrupt reply
//     frame, receive timeout), a reply for another request id, and a
//     reply the caller does not accept (e.g. a SolveOk that does not
//     decode) tear the connection down and retry on a fresh one — the
//     dead connection is never reused, so a stale reply can never be
//     matched to a later request;
//   * Overloaded / Draining server errors back off and retry (Draining
//     implies reconnecting, since that server instance will not accept
//     new work again);
//   * BadRequest / Internal also retry on a fresh connection: the wire
//     has no checksum, so a BadRequest may be line corruption of a good
//     frame. A genuinely malformed request fails every attempt and comes
//     back as the give-up error;
//   * every other error (DeadlineExceeded, the session errors) is a
//     definitive outcome and is returned without retrying.
//
// Backoff is bounded exponential with seeded jitter (deterministic for a
// given RetryPolicy::jitter_seed), so chaos campaigns replay identically.
// Every decision is visible in obs counters: client.connects,
// client.reconnects, client.retries, client.timeouts, client.gave_up.
//
// Thread-safety: like Client, one ResilientClient per thread.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "obs/metrics.h"
#include "svc/client.h"
#include "svc/fault/io_shim.h"
#include "util/rng.h"

namespace lrb::svc {

struct RetryPolicy {
  /// Attempts per request (first try included). 0 is treated as 1.
  std::size_t max_attempts = 8;
  std::uint32_t connect_timeout_ms = 2000;
  /// Per-attempt budget for the reply to arrive; 0 = wait forever.
  std::uint32_t solve_timeout_ms = 10000;
  /// Backoff before retry a (1-based) is
  /// min(cap, base << (a-1)) * uniform[0.5, 1.0) from the jitter stream.
  std::uint32_t backoff_base_ms = 2;
  std::uint32_t backoff_cap_ms = 250;
  std::uint64_t jitter_seed = 1;
};

class ResilientClient {
 public:
  ResilientClient(Endpoint endpoint, RetryPolicy policy = {},
                  obs::Registry* metrics = &obs::Registry::global(),
                  fault::SocketIo* io = &fault::SocketIo::real());

  /// A call's answer: an accepted reply or a definitive server error.
  struct Reply {
    MsgType type = MsgType::kError;
    std::string payload;                     ///< reply payload bytes
    std::optional<ErrorReply> server_error;  ///< set iff type == kError
    std::size_t attempts = 1;                ///< round-trips consumed
  };

  /// Decides whether a non-error reply ends the call. A rejected reply is
  /// retried on a fresh connection with *why as its error. An accepting
  /// check may take the payload.
  using AcceptReply =
      std::function<bool(MsgType type, std::string& payload, std::string* why)>;

  /// Sends one request and retries it until a reply is accepted (an empty
  /// `accept` takes every non-error type) or a definitive server error
  /// arrives. nullopt (and *error) only when every attempt failed.
  [[nodiscard]] std::optional<Reply> call(MsgType type,
                                          std::uint64_t request_id,
                                          std::string_view payload,
                                          std::string* error,
                                          const AcceptReply& accept = {});

  struct Outcome : Client::SolveOutcome {
    std::size_t attempts = 1;  ///< round-trips consumed
  };

  /// call() for a Solve: accepts only a SolveOk whose payload decodes.
  /// The Outcome carries the result or the definitive server error.
  [[nodiscard]] std::optional<Outcome> solve(const SolveRequest& request,
                                             std::uint64_t request_id,
                                             std::string* error);

  /// Drops the current connection (the next request reconnects).
  void disconnect();

 private:
  [[nodiscard]] bool ensure_connected(std::string* error);
  void backoff(std::size_t attempt);

  Endpoint endpoint_;
  RetryPolicy policy_;
  fault::SocketIo* io_;
  Client client_;
  bool ever_connected_ = false;
  Rng jitter_;

  obs::Counter& m_connects_;
  obs::Counter& m_reconnects_;
  obs::Counter& m_retries_;
  obs::Counter& m_timeouts_;
  obs::Counter& m_gave_up_;
};

}  // namespace lrb::svc
