// lrb_stream: driver and determinism checker for streaming rebalance
// sessions (wire v2, docs/streaming.md).
//
// By default it spins up an IN-PROCESS multi-reactor server, generates
// seeded arrival/departure traces (stream/trace.h) as delta logs, streams
// them as concurrent sessions, and — with --check — byte-compares every
// server ack (open, each delta frame, stats, close) against the serial replay
// reference (stream::replay_serial_reference's solver on a mirrored
// session). --reconnect-every forces mid-session reconnects, so frames
// land on reactors that do not own the session and the cross-reactor
// forwarding path is exercised under the same byte-compare.
//
//   lrb_stream --smoke --check --reactors 4
//   lrb_stream --sessions 8 --deltas 500 --frame 16 --check --cache-mb 8
//   lrb_stream --record /tmp/s.lrbd --deltas 200 --seed 7
//   lrb_stream --replay /tmp/s.lrbd --check
//   lrb_stream --unix /tmp/lrb.sock --sessions 4 --check   # external server
//
// Flags (defaults in parentheses):
//   --sessions N (4)       concurrent sessions, one client thread each
//   --deltas N (200)       deltas per session (trace events)
//   --frame N (16)         deltas per SessionDelta frame
//   --algo NAME (best-of)  replan backend (solver registry, canonical name
//                          or alias, docs/solvers.md): greedy, m-partition,
//                          best-of, ptas, lpt, local-search
//   --move-frac F (0.25)   replan move budget as a fraction of live jobs
//   --imbalance R (1.5)    imbalance trigger ratio (0 disables)
//   --every N (32)         delta-count trigger (0 disables)
//   --depart-frac F (0.4)  departure fraction of the generated traces
//   --reconnect-every N (0) drop the connection every N frames (forwarding)
//   --seed N (1)           trace/corpus seed (>= 0)
//   --check                byte-compare every ack vs the serial reference
//   --record FILE          write session 0's delta log (.lrbd) and exit
//   --replay FILE          stream FILE's delta log as a single session
//   --unix PATH | --tcp HOST:PORT   target an external server (default:
//                          in-process); --check needs no server setting
//   --reactors N (2)       in-process server: event-loop shards
//   --engine-workers N (2) in-process server: engine tick workers
//   --workers N (0)        in-process server: solver pool (0 = hw)
//   --cache-mb N (0)       in-process server: solution cache budget
//   --smoke                CI preset: 2 sessions x 60 deltas, frame 7,
//                          reconnect every 3 frames (flags still override)
//   --version              print version/schema info and exit
//
// Exit status is 2 for an out-of-range flag value (--sessions, --reactors,
// --engine-workers and --workers up to 1024; --deltas, --frame and
// --reconnect-every up to 10^8; --every below 2^32; --cache-mb up to 2^20;
// --seed >= 0; --depart-frac in [0, 1]), checked before anything starts,
// and 1 on transport give-up, any rejected lifecycle call, or any --check
// mismatch.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/generators.h"
#include "solver/registry.h"
#include "stream/delta_log.h"
#include "stream/replay.h"
#include "stream/trace.h"
#include "svc/server.h"
#include "svc/session_client.h"
#include "util/flags.h"
#include "util/version.h"

namespace {

// Upper bounds for the count flags: each session (and each server thread)
// is an OS thread, and each session's delta log is held in memory.
constexpr std::int64_t kMaxThreads = 1024;
constexpr std::int64_t kMaxDeltas = 100'000'000;

int fail(const std::string& message) {
  std::cerr << "lrb_stream: " << message << "\n";
  return 1;
}

/// An unusable flag value: diagnosed before anything starts, exit 2.
int bad_flag(const std::string& message) {
  std::cerr << "lrb_stream: " << message << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lrb;
  const Flags flags(argc, argv);
  if (flags.has("version")) {
    print_version("lrb_stream");
    return 0;
  }
  for (const auto& key : flags.keys()) {
    static const char* known[] = {
        "sessions", "deltas",   "frame",     "algo",   "move-frac",
        "imbalance", "every",   "depart-frac", "reconnect-every", "seed",
        "check",    "record",   "replay",    "unix",   "tcp",
        "reactors", "engine-workers", "workers", "cache-mb",
        "smoke",    "version"};
    if (std::find_if(std::begin(known), std::end(known), [&](const char* k) {
          return key == k;
        }) == std::end(known)) {
      return fail("unknown flag '--" + key + "'");
    }
  }

  // Counts are range-checked before their unsigned casts; the first bad
  // flag is reported once everything is read.
  std::string flag_error;
  const bool smoke = flags.has("smoke");
  std::size_t sessions = static_cast<std::size_t>(flags.get_int_in(
      "sessions", smoke ? 2 : 4, 1, kMaxThreads, &flag_error));
  const std::size_t deltas = static_cast<std::size_t>(flags.get_int_in(
      "deltas", smoke ? 60 : 200, 0, kMaxDeltas, &flag_error));
  const std::size_t frame = static_cast<std::size_t>(flags.get_int_in(
      "frame", smoke ? 7 : 16, 1, kMaxDeltas, &flag_error));
  const std::size_t reconnect_every = static_cast<std::size_t>(
      flags.get_int_in("reconnect-every", smoke ? 3 : 0, 0, kMaxDeltas,
                       &flag_error));
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.get_int_in(
      "seed", 1, 0, std::numeric_limits<std::int64_t>::max(), &flag_error));
  const bool check = flags.has("check");

  stream::TriggerConfig trigger;
  const std::string algo_text = flags.get_or("algo", "best-of");
  if (!solver::parse_backend(algo_text, &trigger.spec.backend)) {
    return fail("unknown --algo '" + algo_text + "' (want " +
                solver::backend_list() + ")");
  }
  trigger.move_frac = flags.get_double("move-frac", 0.25);
  trigger.imbalance_ratio = flags.get_double("imbalance", 1.5);
  trigger.delta_count = static_cast<std::uint32_t>(flags.get_int_in(
      "every", 32, 0, std::numeric_limits<std::uint32_t>::max(),
      &flag_error));
  const double depart_frac = flags.get_double("depart-frac", 0.4);
  if (!(depart_frac >= 0.0 && depart_frac <= 1.0) && flag_error.empty()) {
    flag_error = "--depart-frac must be in [0, 1]";
  }
  const std::int64_t reactors =
      flags.get_int_in("reactors", 2, 1, kMaxThreads, &flag_error);
  const std::int64_t engine_workers =
      flags.get_int_in("engine-workers", 2, 1, kMaxThreads, &flag_error);
  const std::int64_t workers =
      flags.get_int_in("workers", 0, 0, kMaxThreads, &flag_error);
  const std::int64_t cache_mb =
      flags.get_int_in("cache-mb", 0, 0, 1 << 20, &flag_error);
  if (!flag_error.empty()) return bad_flag(flag_error);
  if (const auto invalid = stream::validate_trigger(trigger)) {
    return fail("invalid trigger: " + *invalid);
  }

  // One deterministic delta log per session index.
  const auto make_log = [&](std::size_t index) {
    stream::DeltaLog log;
    log.initial = mixed_corpus_instance(index, seed);
    log.trigger = trigger;
    stream::TraceOptions trace_options;
    trace_options.num_events = deltas;
    trace_options.departure_fraction = depart_frac;
    log.deltas = stream::random_trace(trace_options, seed + index,
                                      log.initial.num_jobs());
    return log;
  };

  if (const auto path = flags.get("record")) {
    std::ofstream out(*path);
    if (!out) return fail("cannot write '" + *path + "'");
    stream::write_delta_log(out, make_log(0));
    std::cout << "lrb_stream: recorded " << deltas << " deltas to " << *path
              << "\n";
    return 0;
  }

  std::vector<stream::DeltaLog> logs;
  if (const auto path = flags.get("replay")) {
    std::ifstream in(*path);
    if (!in) return fail("cannot read '" + *path + "'");
    std::string error;
    auto log = stream::read_delta_log(in, &error);
    if (!log) return fail("bad delta log '" + *path + "': " + error);
    logs.push_back(std::move(*log));
    sessions = 1;
  } else {
    logs.reserve(sessions);
    for (std::size_t s = 0; s < sessions; ++s) logs.push_back(make_log(s));
  }

  // Target server: external when --unix/--tcp is given, else in-process.
  svc::Endpoint endpoint;
  std::unique_ptr<svc::Server> server;
  std::thread server_thread;
  const std::string external_unix = flags.get_or("unix", "");
  const auto external_tcp = flags.get("tcp");
  if (!external_unix.empty() && external_tcp) {
    return fail("--unix and --tcp are mutually exclusive");
  }
  if (!external_unix.empty()) {
    endpoint = svc::Endpoint::unix_socket(external_unix);
  } else if (external_tcp) {
    std::string error;
    auto parsed = svc::Endpoint::parse_tcp(*external_tcp, &error);
    if (!parsed) return fail("bad --tcp: " + error);
    endpoint = std::move(*parsed);
  } else {
    svc::ServerOptions options;
    std::ostringstream path;
    path << "/tmp/lrb_stream." << getpid() << ".sock";
    options.unix_path = path.str();
    options.reactors = static_cast<std::size_t>(reactors);
    options.engine_workers = static_cast<std::size_t>(engine_workers);
    options.engine.workers = static_cast<std::size_t>(workers);
    options.engine.cache_bytes = static_cast<std::size_t>(cache_mb) << 20;
    server = std::make_unique<svc::Server>(std::move(options));
    std::string error;
    if (!server->start(&error)) return fail("server start: " + error);
    endpoint = svc::Endpoint::unix_socket(server->options().unix_path);
    server_thread = std::thread([&server] { server->run(); });
  }

  std::vector<svc::StreamRunResult> results(logs.size());
  std::vector<std::thread> threads;
  threads.reserve(logs.size());
  for (std::size_t s = 0; s < logs.size(); ++s) {
    threads.emplace_back([&, s] {
      svc::StreamRunOptions run;
      run.endpoint = endpoint;
      run.session_id = seed * 1000003 + s + 1;
      run.frame_size = frame;
      run.reconnect_every = reconnect_every;
      run.check = check;
      run.retry.jitter_seed = seed + s;
      results[s] = svc::run_session_stream(logs[s], run);
    });
  }
  for (auto& t : threads) t.join();

  if (server) {
    server->notify_signal();
    server_thread.join();
  }

  std::size_t ok = 0, frames = 0, mismatches = 0;
  std::uint64_t applied = 0, rejected = 0, plans = 0, moves = 0;
  for (std::size_t s = 0; s < results.size(); ++s) {
    const auto& r = results[s];
    if (r.ok) {
      ++ok;
    } else {
      std::cerr << "lrb_stream: session " << s << " failed: " << r.error
                << "\n";
    }
    frames += r.frames_sent;
    mismatches += r.mismatches;
    applied += r.deltas_applied;
    rejected += r.deltas_rejected;
    plans += r.plans_emitted;
    moves += r.moves_total;
  }
  std::cout << "lrb_stream: " << ok << "/" << results.size()
            << " sessions ok, " << frames << " frames, " << applied
            << " deltas applied, " << rejected << " rejected, " << plans
            << " plans, " << moves << " moves\n";
  if (check) {
    std::cout << "lrb_stream: check "
              << (mismatches == 0 && ok == results.size() ? "OK" : "FAIL")
              << " (" << mismatches << " reply mismatches vs serial replay)"
              << "\n";
  }
  return ok == results.size() && mismatches == 0 ? 0 : 1;
}
