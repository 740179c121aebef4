// lrb_e2e: the end-to-end benchmark driver for lrb_serve (see
// e2ebench/README.md). It spawns the lrb_serve binary given by --serve on
// a Unix socket in the working directory, drives one workload through
// svc::Client, checks every reply against the serial references off the
// clock, and prints the metrics; the last stdout line is one JSON object.
//
//   lrb_e2e --serve PATH --workload solve-unique --seed 1 --seconds 10
//           --trace 0 [--commit SHA] [--corrupt-one-reply]
//
// --trace 0 is the timed run: it sets up kSetups servers in turn, each
// carrying an equal slice of the measurement, and reports the end-to-end
// metrics. --trace 1 sets up one server, runs the phases twice at half
// length (plain, then with client spans), replays the inputs in-process
// with a span around each layer call, writes every span to
// spans-<workload>.csv, and reports the per-layer metrics.
// --corrupt-one-reply flips one byte of one stored reply before the
// checks, which must then fail the run.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "replay.h"
#include "server_process.h"
#include "service_driver.h"
#include "stats_json.h"
#include "trace.h"
#include "verify.h"
#include "workloads.h"

namespace e2e {
namespace {

constexpr std::size_t kSetups = 5;           // set-ups per timed run
constexpr std::size_t kWarmSessionFrames = 64;
constexpr std::size_t kReplaySolves = 2000;  // traced in-process sample
constexpr std::size_t kReplayFrames = 64;
constexpr double kOpenShare = 0.4;           // open-loop share of a pass
constexpr char kSocket[] = "serve.sock";
constexpr char kServerLog[] = "serve.log";

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serve;
  std::string commit = "unknown";
  bool corrupt_one_reply = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a run reports besides its metrics.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< attempted ops with an error or no reply
  CheckResult check;
  std::vector<Metric> metrics;
  /// Printed but outside the contract: their run-to-run spread on a shared
  /// 4-vCPU host exceeds the largest bound BENCHMARK.json may set.
  std::vector<Metric> unresolved;
};

[[noreturn]] void die(const std::string& message) {
  std::cerr << "lrb_e2e: " << message << "\n";
  kill_running_server();
  std::exit(2);
}

std::string fmt(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", value);
  return buf;
}

std::size_t check_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

double median(std::vector<double> values) {
  return percentile(values, 0.5);
}

std::string stats_or_die(svc::Client& client) {
  std::string error;
  auto json = ServerProcess::stats(client, &error);
  if (!json) die("Stats failed: " + error);
  return *json;
}

/// Counters and histograms between two Stats snapshots.
struct StatsDelta {
  std::string before;
  std::string after;
  [[nodiscard]] double counter(const std::string& name) const {
    return static_cast<double>(stats_counter(after, name) -
                               stats_counter(before, name));
  }
  [[nodiscard]] WindowMean window(const std::string& name) const {
    return phase_mean(stats_histogram(before, name),
                      stats_histogram(after, name));
  }
  [[nodiscard]] double mean(const std::string& name) const {
    return window(name).mean;
  }
};

// ---------------------------------------------------------------------------
// Solve workloads.

/// Whole-second windows tiling a phase. Reported latencies and rates are
/// medians over these windows, so one disturbed second (a neighbour's
/// burst, one pathological solve) cannot move them; whole-phase figures
/// are printed beside them.
class Windows {
 public:
  Windows(std::int64_t start_ns, std::int64_t end_ns)
      : start_(start_ns),
        count_(static_cast<std::size_t>(std::max<std::int64_t>(
            1, (end_ns - start_ns + 500'000'000) / 1'000'000'000))),
        length_(std::max<std::int64_t>(
            1, (end_ns - start_ns) / static_cast<std::int64_t>(count_))) {}

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double seconds() const {
    return static_cast<double>(length_) * 1e-9;
  }
  /// Window holding time t, or count() when t lies outside the phase.
  [[nodiscard]] std::size_t at(std::int64_t t) const {
    if (t < start_) return count_;
    const auto w = static_cast<std::size_t>((t - start_) / length_);
    return std::min(w, count_);
  }

 private:
  std::int64_t start_;
  std::size_t count_;
  std::int64_t length_;
};

/// One latency sample (or event amount): the time that places it in a
/// window, and its value.
struct Sample {
  std::int64_t at_ns = 0;
  double ms = 0.0;
};

struct LatencyFigures {
  std::size_t samples = 0;
  double p50 = 0.0;  ///< over the whole phase
  double p99 = 0.0;
  std::vector<double> window_p50s;  ///< one per non-empty window
  std::vector<double> window_p99s;
};

LatencyFigures latency_figures(const std::vector<Sample>& samples,
                               const Windows& windows) {
  LatencyFigures fig;
  std::vector<std::vector<double>> per(windows.count());
  std::vector<double> all;
  for (const Sample& s : samples) {
    all.push_back(s.ms);
    const std::size_t w = windows.at(s.at_ns);
    if (w < per.size()) per[w].push_back(s.ms);
  }
  fig.samples = all.size();
  fig.p50 = percentile(all, 0.5);
  fig.p99 = percentile(all, 0.99);
  for (auto& window : per) {
    if (window.empty()) continue;
    fig.window_p50s.push_back(percentile(window, 0.5));
    fig.window_p99s.push_back(percentile(window, 0.99));
  }
  return fig;
}

/// Per window: (amount landing in the window) / window length.
std::vector<double> window_rates(const std::vector<Sample>& events,
                                 const Windows& windows) {
  std::vector<double> per(windows.count(), 0.0);
  for (const Sample& e : events) {
    const std::size_t w = windows.at(e.at_ns);
    if (w < per.size()) per[w] += e.ms;
  }
  for (double& v : per) v /= windows.seconds();
  return per;
}

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

/// Open-loop latency from the scheduled send time, placed by due time.
/// Shed and failed requests count as the whole phase length.
std::vector<Sample> open_loop_samples(const SolvePhase& phase) {
  const double never = ns_to_ms(phase.end_ns - phase.start_ns);
  std::vector<Sample> out;
  for (const ConnectionLog& log : phase.conns) {
    for (std::size_t j = 0; j < log.sends.size(); ++j) {
      const ReplyRecord& reply = log.replies[j];
      out.push_back({log.sends[j].due_ns,
                     reply.status == ReplyStatus::kOk
                         ? ns_to_ms(reply.received_ns - log.sends[j].due_ns)
                         : never});
    }
  }
  return out;
}

LatencyFigures open_loop_figures(const SolvePhase& phase) {
  return latency_figures(open_loop_samples(phase),
                         Windows(phase.start_ns, phase.end_ns));
}

/// Closed loop: OK replies per second in each window.
std::vector<double> closed_loop_rates(const SolvePhase& phase) {
  std::vector<Sample> events;
  for (const ConnectionLog& log : phase.conns) {
    for (std::size_t j = 0; j < log.sends.size(); ++j) {
      if (log.replies[j].status == ReplyStatus::kOk) {
        events.push_back({log.replies[j].received_ns, 1.0});
      }
    }
  }
  return window_rates(events, Windows(phase.start_ns, phase.end_ns));
}

void print_phase(const SolvePhase& phase, double slo_ms) {
  std::ostringstream line;
  line << "phase " << phase.name << " ("
       << (phase.open_loop
               ? "open loop " + fmt(phase.rate) + " req/s"
               : "closed loop " + std::to_string(phase.conns.size()) + "x" +
                     std::to_string(phase.window) + " in flight")
       << ", " << fmt(ns_to_ms(phase.end_ns - phase.start_ns) / 1e3)
       << " s): sent " << phase.sent() << ", ok " << phase.count(ReplyStatus::kOk)
       << ", shed " << phase.count(ReplyStatus::kShed) << ", failed "
       << phase.count(ReplyStatus::kError) + phase.count(ReplyStatus::kMissing);
  if (phase.open_loop) {
    const std::vector<Sample> samples = open_loop_samples(phase);
    LatencyFigures fig = open_loop_figures(phase);
    std::size_t misses = 0;
    for (const Sample& s : samples) misses += s.ms > slo_ms ? 1 : 0;
    std::vector<double> lag;
    for (const ConnectionLog& log : phase.conns) {
      for (const SendRecord& s : log.sends) {
        lag.push_back(ns_to_ms(s.send_start_ns - s.due_ns));
      }
    }
    line << "; latency from due time over " << fig.samples
         << " samples p50 " << fmt(fig.p50) << " ms, p99 " << fmt(fig.p99)
         << " ms; median over " << fig.window_p50s.size()
         << " 1-s windows p50 " << fmt(median(fig.window_p50s)) << " ms, p99 "
         << fmt(median(fig.window_p99s)) << " ms; slo_miss_share "
         << fmt(samples.empty() ? 0.0
                                : static_cast<double>(misses) /
                                      static_cast<double>(samples.size()))
         << " (limit " << fmt(slo_ms) << " ms); gen lag p99 "
         << fmt(percentile(lag, 0.99)) << " ms";
  } else {
    line << "; ok/s median over 1-s windows "
         << fmt(median(closed_loop_rates(phase)));
  }
  std::cout << line.str() << "\n";
}

struct SolvePass {
  SolvePhase open;
  SolvePhase closed;
  StatsDelta stats;         ///< over both phases
  StatsDelta closed_stats;  ///< over the closed loop only
};

SolvePass run_solve_pass(std::vector<svc::Client>& clients,
                         const SolveWorkload& workload,
                         std::uint64_t first_id, double seconds,
                         const std::string& label) {
  SolvePass pass;
  pass.stats.before = stats_or_die(clients[0]);
  pass.open = run_open_loop(clients, workload, first_id, workload.open_rate(),
                            seconds * kOpenShare, (label + "open").c_str());
  if (!pass.open.transport_error().empty()) {
    die("open loop: " + pass.open.transport_error());
  }
  pass.closed_stats.before = stats_or_die(clients[0]);
  pass.closed = run_closed_loop(clients, workload, pass.open.next_id,
                                workload.limit(), seconds * (1 - kOpenShare),
                                (label + "closed").c_str());
  if (!pass.closed.transport_error().empty()) {
    die("closed loop: " + pass.closed.transport_error());
  }
  pass.stats.after = pass.closed_stats.after = stats_or_die(clients[0]);
  return pass;
}

/// The client spans of one request: client.request > client.encode,
/// client.send, client.wait (send done to reply complete), client.decode.
void add_client_spans(Tracer& tracer, std::uint64_t id,
                      std::int64_t encode_start, std::int64_t encode_end,
                      std::int64_t send_start, std::int64_t send_end,
                      std::int64_t received, std::int64_t decoded) {
  const std::int32_t root =
      tracer.add("client.request", encode_start, decoded, -1, id);
  tracer.add("client.encode", encode_start, encode_end, root, id);
  tracer.add("client.send", send_start, send_end, root, id);
  tracer.add("client.wait", send_end, received, root, id);
  tracer.add("client.decode", received, decoded, root, id);
}

void client_spans(const SolvePhase& phase, Tracer& tracer) {
  for (const ConnectionLog& log : phase.conns) {
    for (std::size_t j = 0; j < log.sends.size(); ++j) {
      const SendRecord& s = log.sends[j];
      const ReplyRecord& r = log.replies[j];
      if (r.status == ReplyStatus::kMissing) continue;
      add_client_spans(tracer, log.id(j), s.encode_start_ns, s.encode_end_ns,
                       s.send_start_ns, s.send_end_ns, r.received_ns,
                       r.decoded_ns);
    }
  }
}

/// Mean client latency (send to reply received) of the last `samples` OK
/// replies of `phase` in arrival order: the window the server's own
/// latency histogram covers.
double client_mean_latency_ms(const SolvePhase& phase, std::uint64_t samples) {
  std::vector<std::pair<std::int64_t, double>> lat;
  for (const ConnectionLog& log : phase.conns) {
    for (std::size_t j = 0; j < log.sends.size(); ++j) {
      if (log.replies[j].status != ReplyStatus::kOk) continue;
      lat.emplace_back(
          log.replies[j].received_ns,
          ns_to_ms(log.replies[j].received_ns - log.sends[j].send_start_ns));
    }
  }
  std::sort(lat.begin(), lat.end());
  const std::size_t from =
      lat.size() > samples ? lat.size() - static_cast<std::size_t>(samples) : 0;
  double sum = 0.0;
  for (std::size_t i = from; i < lat.size(); ++i) sum += lat[i].second;
  return lat.size() > from ? sum / static_cast<double>(lat.size() - from)
                           : 0.0;
}

/// One lrb_serve instance's share of a solve run: set-up, then a plain
/// pass, then (traced runs) a traced pass.
struct SolveServerRun {
  double setup_s = 0.0;
  double rss_mib = 0.0;
  SolvePhase warm;
  SolvePass plain;
  std::optional<SolvePass> traced;
};

SolveServerRun run_solve_server(const Options& options,
                                const SolveWorkload& workload,
                                double pass_seconds, const std::string& label) {
  SolveServerRun run;
  ServerProcess server(options.serve, kSocket, kServerLog);
  std::string error;
  const std::int64_t spawned = now_ns();
  if (!server.start(&error)) die(error);
  std::vector<svc::Client> clients;
  for (std::size_t c = 0; c < kSolveConnections; ++c) {
    auto client = server.connect(&error);
    if (!client) die("connect: " + error);
    clients.push_back(std::move(*client));
  }
  run.warm = run_closed_loop(clients, workload, 0, workload.warmup_requests(),
                             120.0, (label + "warmup").c_str());
  if (!run.warm.transport_error().empty()) {
    die("warm-up: " + run.warm.transport_error());
  }
  run.setup_s = static_cast<double>(now_ns() - spawned) * 1e-9;
  run.plain =
      run_solve_pass(clients, workload, run.warm.next_id, pass_seconds, label);
  if (options.trace) {
    run.traced = run_solve_pass(clients, workload, run.plain.closed.next_id,
                                pass_seconds, label + "traced-");
  }
  run.rss_mib = server.peak_rss_mib();
  clients.clear();
  server.stop();
  return run;
}

/// Adds one server's check to the run's tally.
void add_check(CheckResult& total, const CheckResult& part, bool first) {
  if (total.mismatches == 0 && part.mismatches > 0) {
    total.first_mismatch = part.first_mismatch;
  }
  total.compared += part.compared;
  total.mismatches += part.mismatches;
  total.selftest_caught = (first || total.selftest_caught) &&
                          part.selftest_caught;
}

void corrupt_one_reply(ConnectionLog& log) {
  for (std::size_t j = 0; j < log.sends.size(); ++j) {
    if (log.replies[j].status != ReplyStatus::kOk) continue;
    char& byte = log.arena[log.replies[j].offset + log.replies[j].length / 2];
    byte = static_cast<char>(byte ^ 0x01);
    std::cout << "corrupted one byte of the reply to request " << log.id(j)
              << "\n";
    return;
  }
}

/// Set-up repeats kSetups times in a timed run, and every server carries
/// an equal slice of the measurement: figures then average over as many
/// thread placements on the host's cores, not just one.
std::size_t servers_per_run(const Options& options) {
  return options.trace ? 1 : kSetups;
}

std::string server_label(const Options& options, std::size_t i) {
  return options.trace ? std::string()
                       : "server" + std::to_string(i + 1) + "/";
}

Outcome run_solve_workload(const Options& options, SolveWorkload& workload) {
  Outcome out;
  const std::size_t servers = servers_per_run(options);
  const double pass_seconds =
      options.trace ? options.seconds / 2
                    : options.seconds / static_cast<double>(servers);
  std::vector<SolveServerRun> runs;
  double ratio_sum = 0.0;
  double ratio_n = 0.0;
  for (std::size_t i = 0; i < servers; ++i) {
    SolveServerRun run = run_solve_server(options, workload, pass_seconds,
                                          server_label(options, i));
    // Every phase is checked; the timed ones (plain passes of a timed run,
    // traced passes of a traced run) also feed the metrics.
    std::vector<const SolvePhase*> phases = {&run.warm, &run.plain.open,
                                             &run.plain.closed};
    if (run.traced) {
      phases.push_back(&run.traced->open);
      phases.push_back(&run.traced->closed);
    }
    const std::size_t first_timed = run.traced ? 3 : 1;
    for (const SolvePhase* phase : phases) {
      print_phase(*phase, workload.slo_ms());
    }
    if (options.corrupt_one_reply && i == 0) {
      corrupt_one_reply(run.plain.open.conns[0]);
    }
    std::vector<double> ratio;
    add_check(out.check,
              check_solve_phases(workload, phases, check_threads(), &ratio),
              i == 0);
    for (std::size_t p = first_timed; p < first_timed + 2; ++p) {
      out.attempted += phases[p]->sent();
      out.failed += phases[p]->count(ReplyStatus::kError) +
                    phases[p]->count(ReplyStatus::kMissing);
      const auto ok = static_cast<double>(phases[p]->count(ReplyStatus::kOk));
      ratio_sum += ratio[p] * ok;
      ratio_n += ok;
    }
    // Checked: drop the reply bytes before the next server runs.
    for (const SolvePhase* phase : phases) {
      for (ConnectionLog& log : const_cast<SolvePhase*>(phase)->conns) {
        std::string().swap(log.arena);
      }
    }
    runs.push_back(std::move(run));
  }

  if (!options.trace) {
    std::vector<double> setup_s;
    std::vector<double> rss;
    std::vector<double> rates;
    std::vector<double> p50s;
    std::vector<double> p99s;
    for (const SolveServerRun& run : runs) {
      setup_s.push_back(run.setup_s);
      rss.push_back(run.rss_mib);
      append(rates, closed_loop_rates(run.plain.closed));
      const LatencyFigures lat = open_loop_figures(run.plain.open);
      append(p50s, lat.window_p50s);
      append(p99s, lat.window_p99s);
    }
    out.metrics = {
        {"setup_s", median(setup_s), "s"},
        {"ok_per_s", median(rates), "1/s"},
        {"makespan_over_lb", ratio_sum / std::max(1.0, ratio_n), "ratio"},
        {"server_rss_mb", median(rss), "MiB"},
    };
    out.unresolved = {{"p50_ms", median(p50s), "ms"},
                      {"p99_ms", median(p99s), "ms"}};
    return out;
  }

  // ---- traced run: per-layer metrics ----
  const SolvePass& plain = runs[0].plain;
  const SolvePass& traced = *runs[0].traced;
  Tracer tracer;
  client_spans(traced.open, tracer);
  client_spans(traced.closed, tracer);
  const auto client = summarize(tracer.spans());
  std::vector<std::uint64_t> sample;
  for (std::uint64_t id = workload.warmup_requests();
       id < workload.warmup_requests() + kReplaySolves; ++id) {
    sample.push_back(id);
  }
  replay_solves(workload, workload.warmup_requests(), sample, tracer);
  const auto layers = summarize(tracer.spans());
  const auto self = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.mean_self_us();
  };
  const auto client_self_ms = [&](const char* name) {
    const auto it = client.find(name);
    return it == client.end() ? 0.0 : it->second.mean_self_us() * 1e-3;
  };
  // Counters over both traced phases; latency means over the closed loop,
  // the phase that saturates the server, client and server side taken
  // over the same window of replies.
  const StatsDelta& stats = traced.stats;
  const StatsDelta& closed_stats = traced.closed_stats;
  const double tick_batch = closed_stats.mean("svc.tick_batch_size");
  const WindowMean server_window =
      closed_stats.window("svc.request_latency_ms");
  const double server_ms = server_window.mean;
  const double client_ms =
      client_mean_latency_ms(traced.closed, server_window.samples);
  const double codec_ms =
      client_self_ms("client.encode") + client_self_ms("client.decode");
  const double lookups =
      stats.counter("cache.hits") + stats.counter("cache.misses");
  std::vector<double> lag;
  for (const ConnectionLog& log : traced.open.conns) {
    for (const SendRecord& s : log.sends) {
      lag.push_back(ns_to_ms(s.send_start_ns - s.due_ns));
    }
  }
  const double tick_us = engine_tick_us(
      workload, workload.warmup_requests(), sample,
      static_cast<std::size_t>(std::llround(std::max(1.0, tick_batch))));

  if (!write_spans("spans-" + options.workload + ".csv", tracer.spans())) {
    die("cannot write the span file");
  }
  std::cout << "spans: " << tracer.spans().size() << " written to spans-"
            << options.workload << ".csv\n";
  out.metrics = {
      {"svc.unattributed_ms", client_ms - server_ms - codec_ms, "ms"},
      {"svc.server_latency_ms", server_ms, "ms"},
      {"svc.tick_batch", tick_batch, "count"},
      {"svc.shed_share",
       static_cast<double>(traced.open.count(ReplyStatus::kShed) +
                           traced.closed.count(ReplyStatus::kShed)) /
           static_cast<double>(std::max<std::size_t>(
               1, traced.open.sent() + traced.closed.sent())),
       "ratio"},
      {"wire.codec_us",
       self("wire.encode_request") + self("wire.decode_request") +
           self("wire.encode_reply") + self("wire.decode_reply"),
       "us"},
      {"engine.tick_us", tick_us, "us"},
      {"engine.solve_ms", closed_stats.mean("engine.solve_latency_ms"), "ms"},
      {"cache.canonicalize_us", self("cache.canonicalize"), "us"},
      {"cache.key_us", self("cache.key"), "us"},
      {"cache.probe_hit_us", self("cache.probe_hit"), "us"},
      {"cache.probe_miss_us", self("cache.probe_miss"), "us"},
      {"cache.publish_us", self("cache.publish"), "us"},
      {"cache.map_back_us", self("cache.map_back"), "us"},
      {"cache.hit_ratio",
       lookups > 0 ? stats.counter("cache.hits") / lookups : 0.0, "ratio"},
      {"cache.evictions_per_op",
       lookups > 0 ? stats.counter("cache.evictions") / lookups : 0.0,
       "ratio"},
      {"solver.solve_us", self("solver.solve"), "us"},
      {"stream.step_us", 0.0, "us"},
      {"stream.lower_bound_us", 0.0, "us"},
      {"stream.digest_us", 0.0, "us"},
      {"stream.replan_us", 0.0, "us"},
      {"stream.plans_per_kdelta", 0.0, "count"},
      {"stream.moves_per_plan", 0.0, "count"},
      {"bench.gen_lag_p99_ms", percentile(lag, 0.99), "ms"},
      {"bench.trace_overhead",
       median(open_loop_figures(traced.open).window_p50s) /
               median(open_loop_figures(plain.open).window_p50s) -
           1.0,
       "ratio"},
  };
  return out;
}

// ---------------------------------------------------------------------------
// session-churn.

std::vector<SessionConnection> connect_sessions(
    const ServerProcess& server, const std::vector<SessionInput>& inputs) {
  std::vector<SessionConnection> sessions(inputs.size());
  for (std::size_t s = 0; s < inputs.size(); ++s) {
    std::string error;
    auto client = server.connect(&error);
    if (!client) die("connect: " + error);
    sessions[s].client = std::move(*client);
    sessions[s].input = &inputs[s];
  }
  return sessions;
}

std::string session_error(const std::vector<SessionConnection>& sessions) {
  for (const SessionConnection& s : sessions) {
    if (!s.error.empty()) return s.error;
  }
  return {};
}

struct SessionFigures {
  std::size_t frames = 0;
  std::uint64_t applied = 0;
  std::vector<double> deltas_per_s;  ///< per window
  LatencyFigures latency;  ///< frame send to ack, placed by send time
  double mean_ms = 0.0;
  double ratio_sum = 0.0;  ///< sum over acks of makespan / lower bound
};

SessionFigures session_figures(const SessionPhase& phase,
                               const std::vector<SessionConnection>& sessions) {
  SessionFigures fig;
  std::vector<Sample> latency;
  std::vector<Sample> applied;
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    for (std::size_t f = phase.first_frame[s]; f < phase.end_frame[s]; ++f) {
      const FrameRecord& rec = sessions[s].frames[f];
      latency.push_back(
          {rec.send_start_ns, ns_to_ms(rec.received_ns - rec.send_start_ns)});
      applied.push_back({rec.received_ns, static_cast<double>(rec.applied)});
      fig.applied += rec.applied;
      fig.ratio_sum += static_cast<double>(rec.makespan) /
                       static_cast<double>(std::max<Size>(1, rec.lower_bound));
    }
  }
  const Windows windows(phase.start_ns, phase.end_ns);
  fig.frames = latency.size();
  fig.deltas_per_s = window_rates(applied, windows);
  fig.latency = latency_figures(latency, windows);
  double sum = 0.0;
  for (const Sample& l : latency) sum += l.ms;
  fig.mean_ms = latency.empty() ? 0.0 : sum / static_cast<double>(fig.frames);
  return fig;
}

void print_session_phase(const SessionPhase& phase,
                         const std::vector<SessionConnection>& sessions) {
  const SessionFigures fig = session_figures(phase, sessions);
  std::cout << "phase " << phase.name << " (closed loop, " << sessions.size()
            << " sessions x 1 frame of " << kFrameDeltas << " deltas, "
            << fmt(ns_to_ms(phase.end_ns - phase.start_ns) / 1e3)
            << " s): frames sent " << fig.frames << ", acked " << fig.frames
            << ", deltas applied " << fig.applied
            << "; frame latency over " << fig.latency.samples
            << " samples p50 " << fmt(fig.latency.p50) << " ms, p99 "
            << fmt(fig.latency.p99) << " ms; median over "
            << fig.latency.window_p50s.size() << " 1-s windows p50 "
            << fmt(median(fig.latency.window_p50s)) << " ms, p99 "
            << fmt(median(fig.latency.window_p99s)) << " ms, deltas/s "
            << fmt(median(fig.deltas_per_s)) << "\n";
}

void session_client_spans(const SessionPhase& phase,
                          const std::vector<SessionConnection>& sessions,
                          Tracer& tracer) {
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    for (std::size_t f = phase.first_frame[s]; f < phase.end_frame[s]; ++f) {
      const FrameRecord& r = sessions[s].frames[f];
      add_client_spans(tracer, (sessions[s].input->session_id << 32) | f,
                       r.encode_start_ns, r.encode_end_ns, r.send_start_ns,
                       r.send_end_ns, r.received_ns, r.decoded_ns);
    }
  }
}

/// One lrb_serve instance's share of a session run.
struct SessionServerRun {
  double setup_s = 0.0;
  double rss_mib = 0.0;
  std::vector<SessionConnection> sessions;
  SessionPhase warm;
  SessionPhase plain;
  std::optional<SessionPhase> traced;
  StatsDelta warm_stats;
  StatsDelta traced_stats;
};

SessionServerRun run_session_server(const Options& options,
                                    const std::vector<SessionInput>& inputs,
                                    double pass_seconds,
                                    const std::string& label) {
  SessionServerRun run;
  ServerProcess server(options.serve, kSocket, kServerLog);
  std::string error;
  const std::int64_t spawned = now_ns();
  if (!server.start(&error)) die(error);
  run.sessions = connect_sessions(server, inputs);
  std::vector<SessionConnection>& sessions = run.sessions;
  run.warm_stats.before = stats_or_die(sessions[0].client);
  if (!open_sessions(sessions, &error)) die("open: " + error);
  run.warm = run_sessions(sessions, 120.0, kWarmSessionFrames,
                          (label + "warmup").c_str());
  if (!session_error(sessions).empty()) {
    die("warm-up: " + session_error(sessions));
  }
  run.setup_s = static_cast<double>(now_ns() - spawned) * 1e-9;
  run.warm_stats.after = stats_or_die(sessions[0].client);
  run.plain = run_sessions(sessions, pass_seconds, ~std::size_t{0},
                           (label + "frames").c_str());
  if (!session_error(sessions).empty()) die(session_error(sessions));
  if (options.trace) {
    run.traced_stats.before = stats_or_die(sessions[0].client);
    run.traced = run_sessions(sessions, pass_seconds, ~std::size_t{0},
                              (label + "traced-frames").c_str());
    if (!session_error(sessions).empty()) die(session_error(sessions));
    run.traced_stats.after = stats_or_die(sessions[0].client);
  }
  run.rss_mib = server.peak_rss_mib();
  for (SessionConnection& s : sessions) s.client.close();
  server.stop();
  return run;
}

Outcome run_session_workload(const Options& options) {
  Outcome out;
  const std::size_t servers = servers_per_run(options);
  const double pass_seconds =
      options.trace ? options.seconds / 2
                    : options.seconds / static_cast<double>(servers);
  // Room for 40,000 deltas/s per session (several times today's rate) in
  // one server's phases, plus the warm-up.
  const std::size_t deltas =
      kWarmSessionFrames * kFrameDeltas +
      static_cast<std::size_t>(pass_seconds * (options.trace ? 2 : 1) * 40000);
  const std::vector<SessionInput> inputs =
      make_session_churn(options.seed, deltas);
  std::vector<SessionServerRun> runs;
  for (std::size_t i = 0; i < servers; ++i) {
    SessionServerRun run = run_session_server(options, inputs, pass_seconds,
                                              server_label(options, i));
    print_session_phase(run.warm, run.sessions);
    print_session_phase(run.plain, run.sessions);
    if (run.traced) print_session_phase(*run.traced, run.sessions);
    if (options.corrupt_one_reply && i == 0) {
      SessionConnection& s = run.sessions[0];
      const std::size_t f = run.plain.first_frame[0];
      s.arena[s.frames[f].offset + 1] ^= 0x01;
      std::cout << "corrupted one byte of session " << s.input->session_id
                << "'s ack to frame " << f << "\n";
    }
    std::vector<const SessionConnection*> sessions;
    for (const SessionConnection& s : run.sessions) sessions.push_back(&s);
    add_check(out.check,
              check_sessions(sessions, kWarmSessionFrames, check_threads()),
              i == 0);
    // Checked: drop the ack bytes before the next server runs.
    for (SessionConnection& s : run.sessions) std::string().swap(s.arena);
    runs.push_back(std::move(run));
  }

  std::vector<double> setup_s;
  std::vector<double> rss;
  std::vector<double> rates;
  std::vector<double> p50s;
  std::vector<double> p99s;
  double ratio_sum = 0.0;
  std::size_t frames = 0;
  for (const SessionServerRun& run : runs) {
    const SessionPhase& timed = run.traced ? *run.traced : run.plain;
    const SessionFigures fig = session_figures(timed, run.sessions);
    out.attempted += fig.frames;
    setup_s.push_back(run.setup_s);
    rss.push_back(run.rss_mib);
    append(rates, fig.deltas_per_s);
    append(p50s, fig.latency.window_p50s);
    append(p99s, fig.latency.window_p99s);
    ratio_sum += fig.ratio_sum;
    frames += fig.frames;
  }
  if (!options.trace) {
    out.metrics = {
        {"setup_s", median(setup_s), "s"},
        {"ok_per_s", median(rates), "1/s"},
        {"makespan_over_lb",
         ratio_sum / static_cast<double>(std::max<std::size_t>(1, frames)),
         "ratio"},
        {"server_rss_mb", median(rss), "MiB"},
    };
    out.unresolved = {{"p50_ms", median(p50s), "ms"},
                      {"p99_ms", median(p99s), "ms"}};
    return out;
  }

  // ---- traced run: per-layer metrics ----
  const SessionServerRun& run = runs[0];
  const SessionFigures plain_fig = session_figures(run.plain, run.sessions);
  const SessionFigures traced_fig = session_figures(*run.traced, run.sessions);
  Tracer tracer;
  session_client_spans(*run.traced, run.sessions, tracer);
  const auto client = summarize(tracer.spans());
  const double replan_engine_us =
      replay_session(inputs[0], kWarmSessionFrames, kReplayFrames, tracer);
  const auto layers = summarize(tracer.spans());
  const auto self = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.mean_self_us();
  };
  const auto total = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.mean_total_us();
  };
  const auto client_self_ms = [&](const char* name) {
    const auto it = client.find(name);
    return it == client.end() ? 0.0 : it->second.mean_self_us() * 1e-3;
  };
  // The server's work per frame: the replayed frame minus its client side.
  const double server_ms = (total("replay.frame") -
                            self("wire.encode_request") -
                            self("wire.decode_reply")) *
                           1e-3;
  const double codec_ms =
      client_self_ms("client.encode") + client_self_ms("client.decode");
  const StatsDelta& traced_stats = run.traced_stats;
  const StatsDelta& warm_stats = run.warm_stats;
  const double lookups = traced_stats.counter("cache.hits") +
                         traced_stats.counter("cache.misses");
  const double warm_applied = warm_stats.counter("stream.deltas_applied");

  if (!write_spans("spans-" + options.workload + ".csv", tracer.spans())) {
    die("cannot write the span file");
  }
  std::cout << "spans: " << tracer.spans().size() << " written to spans-"
            << options.workload << ".csv\n";
  out.metrics = {
      {"svc.unattributed_ms", traced_fig.mean_ms - server_ms - codec_ms, "ms"},
      {"svc.server_latency_ms", server_ms, "ms"},
      {"svc.tick_batch", traced_stats.mean("svc.tick_batch_size"), "count"},
      {"svc.shed_share", 0.0, "ratio"},
      {"wire.codec_us",
       self("wire.encode_request") + self("wire.decode_request") +
           self("wire.encode_reply") + self("wire.decode_reply"),
       "us"},
      {"engine.tick_us", replan_engine_us, "us"},
      {"engine.solve_ms", traced_stats.mean("engine.solve_latency_ms"), "ms"},
      {"cache.canonicalize_us", self("cache.canonicalize"), "us"},
      {"cache.key_us", self("cache.key"), "us"},
      {"cache.probe_hit_us", self("cache.probe_hit"), "us"},
      {"cache.probe_miss_us", self("cache.probe_miss"), "us"},
      {"cache.publish_us", self("cache.publish"), "us"},
      {"cache.map_back_us", self("cache.map_back"), "us"},
      {"cache.hit_ratio",
       lookups > 0 ? traced_stats.counter("cache.hits") / lookups : 0.0,
       "ratio"},
      {"cache.evictions_per_op",
       lookups > 0 ? traced_stats.counter("cache.evictions") / lookups : 0.0,
       "ratio"},
      {"solver.solve_us", self("solver.solve"), "us"},
      {"stream.step_us", self("stream.step"), "us"},
      {"stream.lower_bound_us", self("stream.lower_bound"), "us"},
      {"stream.digest_us", self("stream.digest"), "us"},
      {"stream.replan_us", total("stream.step_replan"), "us"},
      {"stream.plans_per_kdelta",
       warm_applied > 0
           ? warm_stats.counter("stream.plans_emitted") * 1000.0 / warm_applied
           : 0.0,
       "count"},
      {"stream.moves_per_plan", warm_stats.mean("stream.moves_per_plan"),
       "count"},
      {"bench.gen_lag_p99_ms", 0.0, "ms"},
      {"bench.trace_overhead",
       median(traced_fig.latency.window_p50s) /
               median(plain_fig.latency.window_p50s) -
           1.0,
       "ratio"},
  };
  return out;
}

// ---------------------------------------------------------------------------

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) die("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = value() == "1";
    } else if (arg == "--serve") {
      o.serve = value();
    } else if (arg == "--commit") {
      o.commit = value();
    } else if (arg == "--corrupt-one-reply") {
      o.corrupt_one_reply = true;
    } else {
      die("unknown argument " + arg);
    }
  }
  if (o.serve.empty()) die("--serve PATH is required");
  if (!(o.seconds > 0.0)) die("--seconds must be > 0");
  return o;
}

void print_provenance(const Options& o) {
  std::string flags;
  for (const std::string& f : deployment_flags()) flags += " " + f;
  std::cout << "provenance: {\"nproc\": "
            << std::thread::hardware_concurrency() << ", \"build_type\": \""
            << LRB_E2E_BUILD_TYPE << "\", \"lrb_keep_asserts\": "
            << (LRB_E2E_KEEP_ASSERTS ? "true" : "false")
            << ", \"commit\": \"" << o.commit << "\", \"workload\": \""
            << o.workload << "\", \"seed\": " << o.seed
            << ", \"seconds\": " << fmt(o.seconds)
            << ", \"trace\": " << (o.trace ? 1 : 0)
            << ", \"deployment\": \"lrb_serve --unix " << kSocket << flags
            << "\"}\n";
}

int run(int argc, char** argv) {
  const Options options = parse(argc, argv);
  const std::string build_type = LRB_E2E_BUILD_TYPE;
#ifndef __OPTIMIZE__
  die("refusing to run from an unoptimized build (" + build_type + ")");
#endif
  if (build_type == "Debug") die("refusing to run from a Debug build");
  print_provenance(options);

  Outcome out;
  if (options.workload == "solve-unique") {
    auto workload = make_solve_unique(options.seed);
    out = run_solve_workload(options, *workload);
  } else if (options.workload == "solve-repeat-ptas") {
    // Frames for the warm-up, the open loop at 2,000 req/s and a closed
    // loop of up to 40,000 req/s (several times today's rate).
    const auto limit = static_cast<std::uint64_t>(
        64 + options.seconds * (kOpenShare * 2000 + (1 - kOpenShare) * 40000));
    auto workload = make_solve_repeat_ptas(options.seed, limit);
    out = run_solve_workload(options, *workload);
  } else if (options.workload == "session-churn") {
    out = run_session_workload(options);
  } else {
    die("unknown workload '" + options.workload +
        "' (want solve-unique, solve-repeat-ptas or session-churn)");
  }

  std::cout << "check: " << out.check.compared << " replies compared, "
            << out.check.mismatches << " mismatches"
            << (out.check.first_mismatch.empty()
                    ? std::string()
                    : " (first: " + out.check.first_mismatch + ")")
            << "; self-test: a flipped reply byte was "
            << (out.check.selftest_caught ? "caught" : "NOT caught") << "\n";
  for (const Metric& m : out.metrics) {
    std::cout << "metric " << m.name << " = " << fmt(m.value) << " " << m.unit
              << "\n";
  }
  for (const Metric& m : out.unresolved) {
    std::cout << "unresolved " << m.name << " = " << fmt(m.value) << " "
              << m.unit << " (median over 1-s windows; not in the contract)\n";
  }
  const bool correct =
      out.check.mismatches == 0 && out.check.selftest_caught &&
      out.check.compared > 0;
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << out.attempted
       << ", \"failed\": " << out.failed + out.check.mismatches
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    json << (i ? ", " : "") << "\"" << out.metrics[i].name
         << "\": {\"value\": " << fmt(out.metrics[i].value)
         << ", \"unit\": \"" << out.metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::run(argc, argv); }
