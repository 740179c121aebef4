// End-to-end tests for the chaos campaign engine (src/svc/fault/chaos)
// and the retrying client core (src/svc/retry_client), which carries both
// one-shot Solves and the session calls of run_session_stream:
//
//   * a seeded campaign completes with every reply byte-identical to the
//     serial solver and zero lost/duplicated requests;
//   * a campaign with a mid-run server restart rides across it on the
//     client's reconnect path;
//   * re-running a seed reproduces the same fault plans (the replay
//     contract lrb_chaos prints on failure);
//   * a ResilientClient survives its server being killed and restarted
//     between requests, and gives up cleanly when no server exists, for
//     one-shot and session calls alike;
//   * every row of the retry table (same connection, fresh connection,
//     or definitive) holds for solve and for a session open, checked
//     against a scripted peer.
//
// These suites also run under TSan in CI (clients, server event loop and
// engine workers all race through the injector).

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/generators.h"
#include "engine/batch_solver.h"
#include "obs/metrics.h"
#include "svc/fault/chaos.h"
#include "svc/retry_client.h"
#include "svc/server.h"
#include "svc/session_client.h"
#include "svc/wire.h"

namespace lrb::svc::fault {
namespace {

TEST(Chaos, CampaignCompletesWithByteIdenticalReplies) {
  CampaignOptions options;
  options.seed = 0x5eed;
  options.clients = 2;
  options.requests_per_client = 4;
  options.check = true;
  const CampaignResult result = run_campaign(options);
  for (const auto& error : result.errors) ADD_FAILURE() << error;
  EXPECT_TRUE(result.ok) << result.summary();
  EXPECT_EQ(result.completed, result.requests);
  EXPECT_GE(result.server_solves, result.completed);
}

TEST(Chaos, RestartCampaignRidesAcrossServerRestart) {
  CampaignOptions options;
  options.seed = 0xdead;
  options.clients = 2;
  options.requests_per_client = 4;
  options.check = true;
  options.restart_server = true;
  const CampaignResult result = run_campaign(options);
  for (const auto& error : result.errors) ADD_FAILURE() << error;
  EXPECT_TRUE(result.ok) << result.summary();
  EXPECT_EQ(result.completed, result.requests);
  // Every client held a connection across the restart, so each one must
  // have reconnected at least once.
  EXPECT_GE(result.reconnects, options.clients) << result.summary();
}

TEST(Chaos, CacheEnabledCampaignNeverServesStaleOrMisPermutedReplies) {
  // The full fault battery with the solution cache turned on: every reply
  // — whether solved cold, deduped inside a tick, re-solved after a lost
  // reply, or served straight from the warm cache on a retry — must be
  // byte-identical to engine::cached_serial_reference for ITS OWN request
  // labels. A stale entry, a wrong permutation mapping, or a key mixup
  // between retried requests would fail the byte-compare.
  for (const std::uint64_t seed : {0xcac4eULL, 0xfeedULL, 0x31337ULL}) {
    CampaignOptions options;
    options.seed = seed;
    options.clients = 3;
    options.requests_per_client = 6;
    options.check = true;
    options.cache_bytes = std::size_t{4} << 20;
    const CampaignResult result = run_campaign(options);
    for (const auto& error : result.errors) {
      ADD_FAILURE() << "seed 0x" << std::hex << seed << std::dec << ": "
                    << error;
    }
    EXPECT_TRUE(result.ok) << result.summary();
    EXPECT_EQ(result.completed, result.requests);
  }
}

TEST(Chaos, CacheEnabledCampaignRidesAcrossServerRestart) {
  // Restarting mid-campaign swaps a warm cache for a cold one; because a
  // cached reply is a pure function of the request, clients must not be
  // able to tell (identical bytes before and after the restart).
  CampaignOptions options;
  options.seed = 0xbeefca;
  options.clients = 2;
  options.requests_per_client = 6;
  options.check = true;
  options.restart_server = true;
  options.cache_bytes = std::size_t{4} << 20;
  const CampaignResult result = run_campaign(options);
  for (const auto& error : result.errors) ADD_FAILURE() << error;
  EXPECT_TRUE(result.ok) << result.summary();
  EXPECT_EQ(result.completed, result.requests);
  EXPECT_GE(result.reconnects, options.clients) << result.summary();
}

TEST(Chaos, MultiReactorCampaignCompletesWithByteIdenticalReplies) {
  // The sharded front-end under the full fault battery: four reactors
  // frame/flush concurrently and two engine workers run concurrent ticks,
  // yet every reply must still match the serial reference byte for byte,
  // with the ledger catching any lost or duplicated outcome.
  for (const std::uint64_t seed : {0x4eacULL, 0x70b5ULL}) {
    CampaignOptions options;
    options.seed = seed;
    options.clients = 4;
    options.requests_per_client = 4;
    options.check = true;
    options.reactors = 4;
    options.tick_workers = 2;
    const CampaignResult result = run_campaign(options);
    for (const auto& error : result.errors) {
      ADD_FAILURE() << "seed 0x" << std::hex << seed << std::dec << ": "
                    << error;
    }
    EXPECT_TRUE(result.ok) << result.summary();
    EXPECT_EQ(result.completed, result.requests);
    EXPECT_GE(result.server_solves, result.completed);
  }
}

TEST(Chaos, MultiReactorCampaignRidesAcrossServerRestart) {
  // Mid-campaign drain + cold restart of a 4-reactor server: the drain
  // must answer every in-flight request on every reactor before run()
  // returns, and the clients must reconnect into the fresh shards.
  CampaignOptions options;
  options.seed = 0x4eac7dead;
  options.clients = 4;
  options.requests_per_client = 4;
  options.check = true;
  options.restart_server = true;
  options.reactors = 4;
  options.tick_workers = 2;
  const CampaignResult result = run_campaign(options);
  for (const auto& error : result.errors) ADD_FAILURE() << error;
  EXPECT_TRUE(result.ok) << result.summary();
  EXPECT_EQ(result.completed, result.requests);
  EXPECT_GE(result.reconnects, options.clients) << result.summary();
}

TEST(Chaos, MultiReactorCacheEnabledCampaignStaysByteIdentical) {
  // Reactor sharding + concurrent ticks + the canonicalizing cache: the
  // in-flight and permutation paths now race across engine workers,
  // and the reference is cached_serial_reference for every reply.
  CampaignOptions options;
  options.seed = 0xcac4e4;
  options.clients = 3;
  options.requests_per_client = 6;
  options.check = true;
  options.reactors = 3;
  options.tick_workers = 2;
  options.cache_bytes = std::size_t{4} << 20;
  const CampaignResult result = run_campaign(options);
  for (const auto& error : result.errors) ADD_FAILURE() << error;
  EXPECT_TRUE(result.ok) << result.summary();
  EXPECT_EQ(result.completed, result.requests);
}

TEST(ChaosStream, SessionCampaignKeepsTheDeltaLedgerIntact) {
  // Faults injected mid-session: every SessionClient rides resets and torn
  // frames on the exactly-once dedup path, every ack is byte-compared
  // against the serial replay mirror, and the campaign's final ledger
  // check proves no delta was lost or double-applied (server-side
  // stream.deltas_* totals equal the mirrors' exactly).
  for (const std::uint64_t seed : {0x57e4a1ULL, 0x57e4a2ULL}) {
    CampaignOptions options;
    options.seed = seed;
    options.check = true;
    options.stream_sessions = 3;
    options.deltas_per_session = 48;
    options.reactors = 2;
    const CampaignResult result = run_campaign(options);
    for (const auto& error : result.errors) {
      ADD_FAILURE() << "seed 0x" << std::hex << seed << std::dec << ": "
                    << error;
    }
    EXPECT_TRUE(result.ok) << result.summary();
    EXPECT_EQ(result.completed, result.requests);
  }
}

TEST(ChaosStream, CacheEnabledSessionCampaignStaysByteIdentical) {
  // Session replans flow through the canonicalizing solution cache; with
  // faults on, retried frames and cache hits must still reproduce the
  // cached serial replay byte for byte.
  CampaignOptions options;
  options.seed = 0x57ecac4e;
  options.check = true;
  options.stream_sessions = 2;
  options.deltas_per_session = 40;
  options.cache_bytes = std::size_t{4} << 20;
  const CampaignResult result = run_campaign(options);
  for (const auto& error : result.errors) ADD_FAILURE() << error;
  EXPECT_TRUE(result.ok) << result.summary();
  EXPECT_EQ(result.completed, result.requests);
}

TEST(Chaos, SameSeedDerivesSamePlans) {
  CampaignOptions options;
  options.seed = 123;
  options.clients = 1;
  options.requests_per_client = 2;
  const CampaignResult a = run_campaign(options);
  const CampaignResult b = run_campaign(options);
  EXPECT_TRUE(a.ok) << a.summary();
  EXPECT_TRUE(b.ok) << b.summary();
  // The fault plans — everything needed to replay — are pure functions of
  // the seed. (Raw fault counts may drift with thread interleaving; the
  // campaign-level assertions hold under any schedule.)
  EXPECT_EQ(a.server_plan.describe(), b.server_plan.describe());
  EXPECT_EQ(a.client_plan.describe(), b.client_plan.describe());
}

TEST(Chaos, CampaignSeedsAreDistinct) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seeds.insert(campaign_seed(1, i));
  }
  EXPECT_EQ(seeds.size(), 1000u);
}

// ---------------------------------------------------------------------------
// ResilientClient against a plain (fault-free) server.
// ---------------------------------------------------------------------------

std::string chaos_socket_path() {
  static int counter = 0;
  return "/tmp/lrb_chaos_t" + std::to_string(getpid()) + "_" +
         std::to_string(counter++) + ".sock";
}

class PlainServer {
 public:
  explicit PlainServer(const std::string& path) : path_(path) {
    ServerOptions options;
    options.unix_path = path_;
    options.metrics = &registry_;
    options.engine.workers = 2;
    server_ = std::make_unique<Server>(std::move(options));
    std::string error;
    if (!server_->start(&error)) {
      ADD_FAILURE() << "server start failed: " << error;
      return;
    }
    runner_ = std::thread([this] { server_->run(); });
  }

  ~PlainServer() { stop(); }

  void stop() {
    if (runner_.joinable()) {
      server_->notify_signal();
      runner_.join();
    }
  }

 private:
  std::string path_;
  obs::Registry registry_;
  std::unique_ptr<Server> server_;
  std::thread runner_;
};

SolveRequest small_request(std::size_t index) {
  SolveRequest request;
  request.spec = solver::BackendId::kBestOf;
  request.instance = mixed_corpus_instance(index, 9);
  request.k = 4;
  return request;
}

TEST(ResilientClient, ReconnectsAcrossServerKillAndRestart) {
  const std::string path = chaos_socket_path();
  obs::Registry metrics;
  RetryPolicy policy;
  policy.connect_timeout_ms = 2000;
  policy.backoff_base_ms = 1;
  policy.backoff_cap_ms = 20;
  ResilientClient client(Endpoint::unix_socket(path), policy, &metrics);

  auto server = std::make_unique<PlainServer>(path);
  std::string error;
  auto first = client.solve(small_request(0), 1, &error);
  ASSERT_TRUE(first) << error;
  ASSERT_TRUE(first->result);

  // Kill the server (graceful drain, socket unlinked is NOT done — the
  // path is reused) and bring up a fresh instance on the same path. The
  // client's cached connection is now a dead socket.
  server = nullptr;
  server = std::make_unique<PlainServer>(path);

  auto second = client.solve(small_request(1), 2, &error);
  ASSERT_TRUE(second) << error;
  ASSERT_TRUE(second->result);
  EXPECT_GE(second->attempts, 2u)
      << "the dead connection should have cost at least one attempt";
  EXPECT_GE(metrics.counter("client.reconnects").value(), 1u);
  EXPECT_GE(metrics.counter("client.retries").value(), 1u);

  server = nullptr;
  unlink(path.c_str());
}

TEST(ResilientClient, GivesUpCleanlyWithoutAServer) {
  obs::Registry metrics;
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.connect_timeout_ms = 50;
  policy.backoff_base_ms = 1;
  policy.backoff_cap_ms = 2;
  ResilientClient client(
      Endpoint::unix_socket("/tmp/lrb_chaos_no_such_socket.sock"), policy,
      &metrics);
  std::string error;
  const auto outcome = client.solve(small_request(0), 1, &error);
  EXPECT_FALSE(outcome);
  EXPECT_NE(error.find("gave up after 3 attempts"), std::string::npos)
      << error;
  EXPECT_EQ(metrics.counter("client.gave_up").value(), 1u);
  EXPECT_EQ(metrics.counter("client.retries").value(), 2u);
}

TEST(ResilientClient, PingRoundTrips) {
  const std::string path = chaos_socket_path();
  PlainServer server(path);
  obs::Registry metrics;
  ResilientClient client(Endpoint::unix_socket(path), {}, &metrics);
  std::string error;
  const auto reply = client.call(MsgType::kPing, 5, "", &error);
  ASSERT_TRUE(reply) << error;
  EXPECT_EQ(reply->type, MsgType::kPong);
  EXPECT_EQ(metrics.counter("client.connects").value(), 1u);
}

// ---------------------------------------------------------------------------
// The retry table, pinned against a scripted peer: a unix-socket listener
// that answers the n-th request frame it reads with the n-th scripted
// frame (echoing the request id unless told not to) and hangs up once the
// script runs out. Each row checks where the retry lands: the same
// connection (client.connects stays 1), a fresh one (client.reconnects
// +1), or nowhere (a definitive outcome after one attempt).
// ---------------------------------------------------------------------------

struct ScriptedReply {
  MsgType type = MsgType::kError;
  std::string payload;
  bool wrong_id = false;  ///< answer with request id + 1
};

ScriptedReply error_reply(ErrorCode code) {
  return {MsgType::kError, encode_error_payload(code, "scripted"), false};
}

class ScriptedPeer {
 public:
  explicit ScriptedPeer(std::vector<ScriptedReply> script)
      : path_(chaos_socket_path()), script_(std::move(script)) {
    listen_fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path_.c_str(), sizeof addr.sun_path - 1);
    unlink(path_.c_str());
    if (listen_fd_ < 0 ||
        bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
        listen(listen_fd_, 4) != 0) {
      ADD_FAILURE() << "scripted peer cannot listen on " << path_;
      return;
    }
    thread_ = std::thread([this] { serve(); });
  }

  ScriptedPeer(const ScriptedPeer&) = delete;
  ScriptedPeer& operator=(const ScriptedPeer&) = delete;

  ~ScriptedPeer() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
    if (listen_fd_ >= 0) close(listen_fd_);
    unlink(path_.c_str());
  }

  [[nodiscard]] const std::string& path() const { return path_; }

  /// Request ids of every frame read, in arrival order.
  [[nodiscard]] std::vector<std::uint64_t> request_ids() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return request_ids_;
  }

 private:
  /// Polls `fd` in short slices so the destructor can stop the thread.
  bool readable(int fd) const {
    while (!stop_) {
      pollfd entry{fd, POLLIN, 0};
      if (poll(&entry, 1, 20) > 0) return true;
    }
    return false;
  }

  void serve() {
    std::size_t next = 0;
    while (readable(listen_fd_)) {
      const int fd = accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) continue;
      std::string buf;
      char chunk[4096];
      while (next < script_.size() && readable(fd)) {
        const ssize_t n = recv(fd, chunk, sizeof chunk, 0);
        if (n <= 0) break;  // the client hung up; await its reconnect
        buf.append(chunk, static_cast<std::size_t>(n));
        FrameHeader header;
        while (next < script_.size() &&
               decode_header(buf, &header) == DecodeStatus::kOk &&
               buf.size() >= kHeaderSize + header.payload_len) {
          buf.erase(0, kHeaderSize + header.payload_len);
          {
            std::lock_guard<std::mutex> lock(mutex_);
            request_ids_.push_back(header.request_id);
          }
          const ScriptedReply& reply = script_[next++];
          std::string frame;
          encode_frame(frame, reply.type,
                       header.request_id + (reply.wrong_id ? 1 : 0),
                       reply.payload);
          if (send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) < 0) break;
        }
      }
      close(fd);
    }
  }

  std::string path_;
  std::vector<ScriptedReply> script_;
  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  mutable std::mutex mutex_;
  std::vector<std::uint64_t> request_ids_;  // guarded by mutex_
  std::thread thread_;
};

RetryPolicy scripted_policy() {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.connect_timeout_ms = 2000;
  policy.solve_timeout_ms = 5000;
  policy.backoff_base_ms = 1;
  policy.backoff_cap_ms = 2;
  return policy;
}

struct Counters {
  std::uint64_t connects = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t retries = 0;
};

Counters read_counters(obs::Registry& metrics) {
  return {metrics.counter("client.connects").value(),
          metrics.counter("client.reconnects").value(),
          metrics.counter("client.retries").value()};
}

ScriptedReply solve_ok() {
  const SolveRequest request = small_request(0);
  return {MsgType::kSolveOk,
          encode_solve_reply_payload(engine::cached_serial_reference(
              request.spec, request.instance, request.k)),
          false};
}

struct ScriptedSolve {
  std::optional<ResilientClient::Outcome> outcome;
  std::string error;
  Counters counters;
  std::vector<std::uint64_t> request_ids;
};

ScriptedSolve solve_against(std::vector<ScriptedReply> script) {
  ScriptedPeer peer(std::move(script));
  obs::Registry metrics;
  ScriptedSolve run;
  {
    ResilientClient client(Endpoint::unix_socket(peer.path()),
                           scripted_policy(), &metrics);
    run.outcome = client.solve(small_request(0), 7, &run.error);
  }
  run.counters = read_counters(metrics);
  run.request_ids = peer.request_ids();
  return run;
}

TEST(ResilientClientRetryTable, SolveOverloadedRetriesOnTheSameConnection) {
  const auto run = solve_against({error_reply(ErrorCode::kOverloaded),
                                  solve_ok()});
  ASSERT_TRUE(run.outcome) << run.error;
  EXPECT_TRUE(run.outcome->result);
  EXPECT_EQ(run.outcome->attempts, 2u);
  EXPECT_EQ(run.counters.connects, 1u);
  EXPECT_EQ(run.counters.reconnects, 0u);
  EXPECT_EQ(run.counters.retries, 1u);
  EXPECT_EQ(run.request_ids, (std::vector<std::uint64_t>{7, 7}));
}

TEST(ResilientClientRetryTable, SolveRetriesOnAFreshConnection) {
  // Draining, BadRequest and Internal errors, a reply for another request
  // id, and a SolveOk whose payload does not decode all drop the
  // connection and resend on a new one.
  const std::vector<std::pair<std::string, ScriptedReply>> rows = {
      {"draining", error_reply(ErrorCode::kDraining)},
      {"bad request", error_reply(ErrorCode::kBadRequest)},
      {"internal", error_reply(ErrorCode::kInternal)},
      {"mismatched id", {MsgType::kSolveOk, solve_ok().payload, true}},
      {"undecodable SolveOk", {MsgType::kSolveOk, "junk", false}},
  };
  for (const auto& [name, first] : rows) {
    const auto run = solve_against({first, solve_ok()});
    ASSERT_TRUE(run.outcome) << name << ": " << run.error;
    EXPECT_TRUE(run.outcome->result) << name;
    EXPECT_EQ(run.outcome->attempts, 2u) << name;
    EXPECT_EQ(run.counters.connects, 2u) << name;
    EXPECT_EQ(run.counters.reconnects, 1u) << name;
    EXPECT_EQ(run.counters.retries, 1u) << name;
    EXPECT_EQ(run.request_ids, (std::vector<std::uint64_t>{7, 7})) << name;
  }
}

TEST(ResilientClientRetryTable, SolveDeadlineExceededIsDefinitive) {
  const auto run = solve_against({error_reply(ErrorCode::kDeadlineExceeded)});
  ASSERT_TRUE(run.outcome) << run.error;
  EXPECT_FALSE(run.outcome->result);
  ASSERT_TRUE(run.outcome->server_error);
  EXPECT_EQ(run.outcome->server_error->code, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(run.outcome->attempts, 1u);
  EXPECT_EQ(run.counters.connects, 1u);
  EXPECT_EQ(run.counters.retries, 0u);
}

struct ScriptedSession {
  StreamRunResult result;
  Counters counters;
  std::vector<std::uint64_t> request_ids;
};

/// Streams an empty delta log (open, stats, close) at a scripted peer.
ScriptedSession session_against(std::vector<ScriptedReply> script) {
  ScriptedPeer peer(std::move(script));
  obs::Registry metrics;
  stream::DeltaLog log;
  log.initial = mixed_corpus_instance(0, 9);
  StreamRunOptions options;
  options.endpoint = Endpoint::unix_socket(peer.path());
  options.retry = scripted_policy();
  options.check = false;
  options.metrics = &metrics;
  ScriptedSession run;
  run.result = run_session_stream(log, options);
  run.counters = read_counters(metrics);
  run.request_ids = peer.request_ids();
  return run;
}

ScriptedReply session_open_ok(bool wrong_id = false) {
  SessionOpenReply reply;
  reply.session_id = 1;
  return {MsgType::kSessionOpenOk, encode_session_open_reply(reply),
          wrong_id};
}

/// The replies after a successful open: stats, then close.
std::vector<ScriptedReply> session_tail() {
  SessionStatsReply stats;
  stats.session_id = 1;
  SessionCloseReply close_reply;
  close_reply.session_id = 1;
  return {{MsgType::kSessionStatsOk, encode_session_stats_reply(stats),
           false},
          {MsgType::kSessionCloseOk, encode_session_close_reply(close_reply),
           false}};
}

std::vector<ScriptedReply> session_script(ScriptedReply first) {
  std::vector<ScriptedReply> script = {std::move(first), session_open_ok()};
  for (ScriptedReply& reply : session_tail()) script.push_back(reply);
  return script;
}

TEST(ResilientClientRetryTable, SessionOverloadedRetriesOnTheSameConnection) {
  const auto run =
      session_against(session_script(error_reply(ErrorCode::kOverloaded)));
  EXPECT_TRUE(run.result.ok) << run.result.error;
  EXPECT_EQ(run.counters.connects, 1u);
  EXPECT_EQ(run.counters.reconnects, 0u);
  EXPECT_EQ(run.counters.retries, 1u);
  // One id per logical call, reused by its retry: open, open, stats, close.
  EXPECT_EQ(run.request_ids, (std::vector<std::uint64_t>{1, 1, 2, 3}));
}

TEST(ResilientClientRetryTable, SessionOpenRetriesOnAFreshConnection) {
  const std::vector<std::pair<std::string, ScriptedReply>> rows = {
      {"draining", error_reply(ErrorCode::kDraining)},
      {"bad request", error_reply(ErrorCode::kBadRequest)},
      {"internal", error_reply(ErrorCode::kInternal)},
      {"mismatched id", session_open_ok(/*wrong_id=*/true)},
  };
  for (const auto& [name, first] : rows) {
    const auto run = session_against(session_script(first));
    EXPECT_TRUE(run.result.ok) << name << ": " << run.result.error;
    EXPECT_EQ(run.counters.connects, 2u) << name;
    EXPECT_EQ(run.counters.reconnects, 1u) << name;
    EXPECT_EQ(run.counters.retries, 1u) << name;
    EXPECT_EQ(run.request_ids, (std::vector<std::uint64_t>{1, 1, 2, 3}))
        << name;
  }
}

TEST(ResilientClientRetryTable, SessionErrorsAreDefinitiveForASessionCall) {
  for (const ErrorCode code :
       {ErrorCode::kBadSequence, ErrorCode::kDeadlineExceeded}) {
    const auto run = session_against({error_reply(code)});
    EXPECT_FALSE(run.result.ok);
    EXPECT_EQ(run.result.error.rfind("open rejected: ", 0), 0u)
        << run.result.error;
    EXPECT_EQ(run.counters.connects, 1u);
    EXPECT_EQ(run.counters.retries, 0u);
    EXPECT_EQ(run.request_ids, (std::vector<std::uint64_t>{1}));
  }
}

TEST(ResilientClient, SessionStreamGivesUpCleanlyWithoutAServer) {
  obs::Registry metrics;
  stream::DeltaLog log;
  log.initial = mixed_corpus_instance(0, 9);
  StreamRunOptions options;
  options.endpoint =
      Endpoint::unix_socket("/tmp/lrb_chaos_no_such_socket.sock");
  options.retry.max_attempts = 3;
  options.retry.connect_timeout_ms = 50;
  options.retry.backoff_base_ms = 1;
  options.retry.backoff_cap_ms = 2;
  options.check = false;
  options.metrics = &metrics;
  const StreamRunResult result = run_session_stream(log, options);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error.rfind("open: gave up after 3 attempts", 0), 0u)
      << result.error;
  EXPECT_EQ(metrics.counter("client.gave_up").value(), 1u);
  EXPECT_EQ(metrics.counter("client.retries").value(), 2u);
}

}  // namespace
}  // namespace lrb::svc::fault
