#include "replay.h"

#include "cache/canonical.h"
#include "cache/solution_cache.h"
#include "common.h"
#include "engine/batch_solver.h"
#include "obs/metrics.h"
#include "solver/registry.h"
#include "verify.h"

namespace e2e {

namespace {

constexpr std::size_t kCacheBytes = std::size_t{64} << 20;

lrb::cache::CacheOptions cache_options(lrb::obs::Registry& metrics) {
  lrb::cache::CacheOptions options;
  options.max_bytes = kCacheBytes;
  options.metrics = &metrics;
  return options;
}

lrb::engine::BatchOptions engine_options(lrb::obs::Registry& metrics) {
  lrb::engine::BatchOptions options;
  options.workers = 2;
  options.cache_bytes = kCacheBytes;
  options.metrics = &metrics;
  return options;
}

/// The cache-enabled solve of one item, stage by stage, as the engine
/// runs it (canonical solve on a miss, result mapped back).
RebalanceResult cached_solve(Tracer& tracer, lrb::cache::SolutionCache& cache,
                             const Instance& instance, std::int64_t k,
                             const lrb::solver::SolverSpec& spec,
                             std::uint64_t request) {
  using lrb::cache::SolutionCache;
  lrb::cache::CanonicalInstance canon;
  {
    ScopedSpan span(tracer, "cache.canonicalize", request);
    canon = lrb::cache::canonicalize(instance);
  }
  std::string key;
  lrb::cache::Fingerprint fp;
  {
    ScopedSpan span(tracer, "cache.key", request);
    key = lrb::cache::encode_cache_key(canon.instance, spec, k);
    fp = lrb::cache::fingerprint(key);
  }
  SolutionCache::Probe probe;
  {
    ScopedSpan span(tracer, "cache.probe_miss", request);
    probe = cache.lookup_or_begin(fp, key, SolutionCache::WaitMode::kNoBlock);
    if (probe.hit) tracer.rename(span.id(), "cache.probe_hit");
  }
  RebalanceResult canonical;
  if (probe.hit) {
    canonical = std::move(probe.result);
  } else {
    {
      ScopedSpan span(tracer, "solver.solve", request);
      canonical = lrb::solver::solve_serial(spec, canon.instance, k);
    }
    if (probe.leader) {
      ScopedSpan span(tracer, "cache.publish", request);
      cache.publish(fp, key, canonical);
    }
  }
  ScopedSpan span(tracer, "cache.map_back", request);
  return lrb::cache::map_to_original(canon, canonical);
}

void replay_one_solve(Tracer& tracer, lrb::cache::SolutionCache& cache,
                      const SolveWorkload& workload, std::uint64_t id) {
  const svc::SolveRequest original = workload.request(id);
  ScopedSpan root(tracer, "replay.request", id);
  std::string payload;
  {
    ScopedSpan span(tracer, "wire.encode_request", id);
    payload = svc::encode_solve_request(original);
  }
  std::optional<svc::SolveRequest> request;
  {
    ScopedSpan span(tracer, "wire.decode_request", id);
    request = svc::decode_solve_request(payload, nullptr);
  }
  const RebalanceResult result = cached_solve(
      tracer, cache, request->instance, request->k, request->spec, id);
  std::string reply;
  {
    ScopedSpan span(tracer, "wire.encode_reply", id);
    svc::encode_solve_reply_payload(result, reply);
  }
  ScopedSpan span(tracer, "wire.decode_reply", id);
  (void)svc::decode_solve_reply_payload(reply, nullptr);
}

std::vector<lrb::engine::BatchSolver::TickItem> tick_items(
    const std::vector<svc::SolveRequest>& requests, std::size_t begin,
    std::size_t end) {
  std::vector<lrb::engine::BatchSolver::TickItem> items;
  for (std::size_t i = begin; i < end; ++i) {
    items.push_back({&requests[i].instance, requests[i].k, requests[i].spec});
  }
  return items;
}

}  // namespace

void replay_solves(const SolveWorkload& workload, std::uint64_t warm,
                   const std::vector<std::uint64_t>& sample, Tracer& tracer) {
  lrb::obs::Registry metrics;
  lrb::cache::SolutionCache cache(cache_options(metrics));
  Tracer untraced;
  for (std::uint64_t id = 0; id < warm; ++id) {
    replay_one_solve(untraced, cache, workload, id);
  }
  for (const std::uint64_t id : sample) {
    replay_one_solve(tracer, cache, workload, id);
  }
  for (const std::uint64_t id : sample) {
    const svc::SolveRequest request = workload.request(id);
    const auto canon = lrb::cache::canonicalize(request.instance);
    const std::string key =
        lrb::cache::encode_cache_key(canon.instance, request.spec, request.k);
    const auto fp = lrb::cache::fingerprint(key);
    ScopedSpan root(tracer, "replay.probe_again", id);
    ScopedSpan span(tracer, "cache.probe_miss", id);
    auto probe = cache.lookup_or_begin(
        fp, key, lrb::cache::SolutionCache::WaitMode::kNoBlock);
    if (probe.hit) tracer.rename(span.id(), "cache.probe_hit");
    if (probe.leader) cache.cancel(fp, key);
  }
}

double engine_tick_us(const SolveWorkload& workload, std::uint64_t warm,
                      const std::vector<std::uint64_t>& sample,
                      std::size_t batch) {
  lrb::obs::Registry metrics;
  lrb::engine::BatchSolver engine(engine_options(metrics));
  batch = std::max<std::size_t>(1, batch);
  for (std::uint64_t first = 0; first < warm; first += 64) {
    std::vector<svc::SolveRequest> batch;
    for (std::uint64_t id = first; id < std::min(first + 64, warm); ++id) {
      batch.push_back(workload.request(id));
    }
    (void)engine.solve_items(tick_items(batch, 0, batch.size()));
  }
  std::vector<svc::SolveRequest> requests;
  for (const std::uint64_t id : sample) requests.push_back(workload.request(id));
  std::vector<double> ticks;
  for (std::size_t i = 0; i < requests.size(); i += batch) {
    const auto items =
        tick_items(requests, i, std::min(i + batch, requests.size()));
    const std::int64_t start = now_ns();
    (void)engine.solve_items(items);
    ticks.push_back(ns_to_us(now_ns() - start));
  }
  return mean(ticks);
}

double replay_session(const SessionInput& input, std::size_t warm_frames,
                      std::size_t sample_frames, Tracer& tracer) {
  lrb::obs::Registry metrics;
  lrb::cache::SolutionCache cache(cache_options(metrics));
  std::string open_error;
  auto session =
      stream::ClusterSession::open(input.initial, input.trigger, &open_error);
  if (!session) return 0.0;

  struct Replan {
    Instance instance;
    std::int64_t k = 0;
    lrb::solver::SolverSpec spec;
  };
  std::vector<Replan> replans;
  Tracer untraced;
  Tracer* active = &untraced;
  std::uint64_t request = 0;
  const stream::SolveFn hook = [&](const Instance& instance, std::int64_t k,
                                   const lrb::solver::SolverSpec& spec) {
    ScopedSpan span(*active, "stream.solve_hook", request);
    if (active == &tracer) replans.push_back({instance, k, spec});
    return cached_solve(*active, cache, instance, k, spec, request);
  };

  const std::size_t frames = warm_frames + sample_frames;
  for (std::size_t f = 0; f < frames; ++f) {
    const std::size_t first = f * kFrameDeltas;
    if (first + kFrameDeltas > input.deltas.size()) break;
    active = f < warm_frames ? &untraced : &tracer;
    request = f;
    Tracer& t = *active;
    ScopedSpan root(t, "replay.frame", f);
    svc::SessionDeltaRequest frame;
    frame.session_id = input.session_id;
    frame.first_seq = first + 1;
    frame.deltas.assign(
        input.deltas.begin() + static_cast<std::ptrdiff_t>(first),
        input.deltas.begin() +
            static_cast<std::ptrdiff_t>(first + kFrameDeltas));
    std::string payload;
    {
      ScopedSpan span(t, "wire.encode_request", f);
      payload = svc::encode_session_delta_request(frame);
    }
    std::optional<svc::SessionDeltaRequest> decoded;
    {
      ScopedSpan span(t, "wire.decode_request", f);
      decoded = svc::decode_session_delta_request(payload, nullptr);
    }
    svc::SessionDeltaReply reply;
    reply.session_id = input.session_id;
    for (std::size_t i = 0; i < decoded->deltas.size(); ++i) {
      ScopedSpan span(t, "stream.step", f);
      const stream::StepResult step =
          session->step(decoded->deltas[i], decoded->first_seq + i, hook);
      if (!step.plans.empty()) t.rename(span.id(), "stream.step_replan");
      fold_step(reply, step.applied, step.error, step.plans);
    }
    reply.last_seq = decoded->first_seq + decoded->deltas.size() - 1;
    reply.makespan = session->makespan();
    {
      ScopedSpan span(t, "stream.lower_bound", f);
      reply.lower_bound = session->lower_bound();
    }
    {
      ScopedSpan span(t, "stream.digest", f);
      reply.state_digest = session->digest();
    }
    std::string ack;
    {
      ScopedSpan span(t, "wire.encode_reply", f);
      ack = svc::encode_session_delta_reply(reply);
    }
    ScopedSpan span(t, "wire.decode_reply", f);
    (void)svc::decode_session_delta_reply(ack, nullptr);
  }

  lrb::obs::Registry engine_metrics;
  lrb::engine::BatchSolver engine(engine_options(engine_metrics));
  std::vector<double> solves;
  for (const Replan& replan : replans) {
    const std::int64_t start = now_ns();
    (void)engine.solve_item({&replan.instance, replan.k, replan.spec});
    solves.push_back(ns_to_us(now_ns() - start));
  }
  return mean(solves);
}

}  // namespace e2e
