// lrb_serve: the long-running rebalancing service. Accepts the binary wire
// protocol (docs/serving.md) over TCP and/or Unix-domain sockets, batches
// concurrent Solve requests into engine::BatchSolver ticks, enforces
// per-request deadlines and queue-depth backpressure, and drains
// gracefully on SIGTERM/SIGINT or a Drain request (zero dropped in-flight
// requests).
//
//   lrb_serve --unix /tmp/lrb.sock --workers 0
//   lrb_serve --tcp 7733 --bind 0.0.0.0 --metrics-json metrics.json
//
// Flags (defaults in parentheses):
//   --unix PATH          listen on a Unix-domain socket
//   --tcp PORT           listen on TCP (0 = ephemeral; port is printed)
//   --bind ADDR (127.0.0.1)  TCP bind address
//   --reactors N (1)     event-loop shards, each with its own poll loop
//                        and connection table (docs/serving.md)
//   --engine-workers N (1)  engine tick workers; > 1 runs concurrent
//                        BatchSolver ticks (replies stay byte-identical)
//   --workers N (0)      solver pool size; 0 = hardware concurrency
//   --max-batch N (64)   solve coalescing cap per engine tick
//   --max-queue N (256)  admission control: shed Solves beyond this depth
//   --max-conns N (256)  connection cap
//   --tick-delay-ms N (0)  chaos/testing knob: delay each engine tick
//   --cache-mb N (0)     solution cache budget in MiB (docs/caching.md);
//                        0 disables the cache. Replies are the same bytes
//                        either way: only their cost changes
//   --metrics-json FILE  dump the final metrics snapshot on clean exit
//   --help               print usage, including the Stats JSON schema
//   --version            print version/schema info and exit
//
// At least one of --unix / --tcp is required. Out-of-range numeric flags
// exit 2 before anything starts.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "solver/registry.h"
#include "svc/server.h"
#include "util/flags.h"
#include "util/version.h"

namespace {

int fail(const std::string& message) {
  std::cerr << "lrb_serve: " << message << "\n";
  return 1;
}

/// A flag value out of range: exit 2, before any listener or pool exists.
int bad_flag(const std::string& message) {
  std::cerr << "lrb_serve: " << message << "\n";
  return 2;
}

constexpr std::int64_t kMaxThreads = 1024;
constexpr std::int64_t kMaxCount = std::int64_t{1} << 30;
/// 1 TiB: keeps `cache_mb << 20` far from overflow.
constexpr std::int64_t kMaxCacheMb = std::int64_t{1} << 20;

/// --help: usage plus the observable surface a dashboard scrapes — the
/// Stats reply / --metrics-json schema and its metric families. Kept in
/// one place so operators do not have to read wire.h to find the schema.
void print_help() {
  std::cout <<
      "usage: lrb_serve (--unix PATH | --tcp PORT) [options]\n"
      "\n"
      "The long-running rebalancing service (docs/serving.md): wire v1\n"
      "one-shot Solves plus wire-v2 streaming sessions (docs/streaming.md)\n"
      "over TCP and/or Unix-domain sockets.\n"
      "\n"
      "options:\n"
      "  --unix PATH           listen on a Unix-domain socket\n"
      "  --tcp PORT            listen on TCP (0 = ephemeral; port printed)\n"
      "  --bind ADDR           TCP bind address (127.0.0.1)\n"
      "  --reactors N          event-loop shards (1)\n"
      "  --engine-workers N    concurrent engine tick workers (1)\n"
      "  --workers N           solver pool size; 0 = hardware (0)\n"
      "  --max-batch N         solve coalescing cap per tick (64)\n"
      "  --max-queue N         shed Solves beyond this queue depth (256)\n"
      "  --max-conns N         connection cap (256)\n"
      "  --tick-delay-ms N     chaos knob: delay each engine tick (0)\n"
      "  --cache-mb N          solution cache budget in MiB; 0 = off (0);\n"
      "                        replies are the same bytes either way\n"
      "  --metrics-json FILE   dump the final metrics snapshot on exit\n"
      "  --help | --version    this text / version and schema info\n"
      "\n"
      "solvers (docs/solvers.md):\n"
      "  Each Solve / SessionOpen frame names its backend by the solver\n"
      "  registry's stable wire id; unknown ids get a BadRequest reply.\n"
      "  Registered backends (wire id: name, accepted aliases):\n";
  for (const auto& backend : lrb::solver::all_backends()) {
    std::cout << "    " << static_cast<int>(backend.wire_id) << ": "
              << backend.name;
    if (!backend.aliases.empty()) {
      std::cout << " (";
      for (std::size_t i = 0; i < backend.aliases.size(); ++i) {
        if (i > 0) std::cout << ", ";
        std::cout << backend.aliases[i];
      }
      std::cout << ")";
    }
    std::cout << "\n";
  }
  std::cout <<
      "\n"
      "stats:\n"
      "  The Stats reply and --metrics-json both carry schema \""
      << lrb::kStatsSchema << "\":\n"
      "  {\"schema\": \"" << lrb::kStatsSchema
      << "\", \"counters\": {...}, \"gauges\": {...},\n"
      "   \"histograms\": {...}} with these families:\n"
      "    svc.*     request/reply/connection counters of the v1 path\n"
      "              (svc.requests_solve, svc.replies_solve_ok, ...) plus\n"
      "              svc.requests_session for the v2 frames\n"
      "    engine.*  batch-engine tick and latency metrics\n"
      "    cache.*   solution cache (--cache-mb; docs/caching.md): hits,\n"
      "              misses, inserts, evictions, single_flight_bypass\n"
      "              (a key already in flight, solved again rather than\n"
      "              waited for), admissions_deferred (first\n"
      "              sightings solved without touching the cache; a form\n"
      "              is cached on its second sighting, a ptas form on its\n"
      "              first) (counters), bytes, entries (gauges)\n"
      "    stream.*  streaming sessions (docs/streaming.md#metrics):\n"
      "              sessions_open (gauge), sessions_opened,\n"
      "              sessions_closed, deltas_applied, deltas_rejected,\n"
      "              plans_emitted, dup_frames_resent, forwarded_frames\n"
      "              (counters), moves_per_plan, replan_latency_ms,\n"
      "              frame_latency_ms (histograms)\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lrb;
  const Flags flags(argc, argv);
  if (flags.has("version")) {
    print_version("lrb_serve");
    return 0;
  }
  if (flags.has("help")) {
    print_help();
    return 0;
  }
  for (const auto& key : flags.keys()) {
    static const char* known[] = {"unix",      "tcp",           "bind",
                                  "reactors",  "engine-workers",
                                  "workers",   "max-batch",     "max-queue",
                                  "max-conns", "tick-delay-ms", "cache-mb",
                                  "metrics-json", "help",       "version"};
    if (std::find_if(std::begin(known), std::end(known), [&](const char* k) {
          return key == k;
        }) == std::end(known)) {
      return fail("unknown flag '--" + key + "'");
    }
  }

  // Counts are range-checked on the signed value before their unsigned
  // casts; the first bad flag is reported once everything is read.
  std::string flag_error;
  svc::ServerOptions options;
  options.unix_path = flags.get_or("unix", "");
  options.tcp_port =
      flags.has("tcp")
          ? static_cast<int>(flags.get_int_in("tcp", 0, 0, 65535, &flag_error))
          : -1;
  options.tcp_bind = flags.get_or("bind", "127.0.0.1");
  options.engine.workers = static_cast<std::size_t>(
      flags.get_int_in("workers", 0, 0, kMaxThreads, &flag_error));
  options.reactors = static_cast<std::size_t>(
      flags.get_int_in("reactors", 1, 1, kMaxThreads, &flag_error));
  options.engine_workers = static_cast<std::size_t>(
      flags.get_int_in("engine-workers", 1, 1, kMaxThreads, &flag_error));
  options.max_batch = static_cast<std::size_t>(
      flags.get_int_in("max-batch", 64, 1, kMaxCount, &flag_error));
  options.max_queue = static_cast<std::size_t>(
      flags.get_int_in("max-queue", 256, 1, kMaxCount, &flag_error));
  options.max_connections = static_cast<std::size_t>(
      flags.get_int_in("max-conns", 256, 1, kMaxCount, &flag_error));
  options.tick_delay_ms = static_cast<std::uint32_t>(
      flags.get_int_in("tick-delay-ms", 0, 0, 60'000, &flag_error));
  options.engine.cache_bytes =
      static_cast<std::size_t>(
          flags.get_int_in("cache-mb", 0, 0, kMaxCacheMb, &flag_error))
      << 20;
  if (!flag_error.empty()) return bad_flag(flag_error);
  if (options.unix_path.empty() && options.tcp_port < 0) {
    return fail("need at least one of --unix PATH / --tcp PORT");
  }

  svc::Server server(std::move(options));
  std::string error;
  if (!server.start(&error)) return fail(error);

  if (!server.options().unix_path.empty()) {
    std::cout << "lrb_serve: listening on unix:" << server.options().unix_path
              << "\n";
  }
  if (server.tcp_port() >= 0) {
    std::cout << "lrb_serve: listening on tcp:" << server.options().tcp_bind
              << ":" << server.tcp_port() << "\n";
  }
  std::cout.flush();

  svc::install_signal_drain(&server);
  server.run();
  svc::install_signal_drain(nullptr);
  std::cout << "lrb_serve: drained cleanly\n";

  if (const auto path = flags.get("metrics-json")) {
    std::ofstream out(*path);
    if (!out) return fail("cannot write '" + *path + "'");
    out << server.options().metrics->to_json();
  }
  return 0;
}
