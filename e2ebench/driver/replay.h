// The in-process half of the traced run: the workload's own inputs fed
// through the public functions of each layer in the order lrb_serve runs
// them, with a span around every call.
//
//   Solve:   wire.encode_request (client) > wire.decode_request >
//            cache.canonicalize > cache.key > cache.probe_hit|probe_miss >
//            solver.solve (miss) > cache.publish (miss) > cache.map_back >
//            wire.encode_reply > wire.decode_reply (client)
//   Session: wire.encode_request > wire.decode_request > stream.step or
//            stream.step_replan (whose solve hook nests stream.solve_hook
//            and the cache/solver spans above) > stream.lower_bound >
//            stream.digest > wire.encode_reply > wire.decode_reply

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace e2e {

/// Replays requests [0, warm) untraced to bring a private 64 MiB cache to
/// the server's state, then `sample` traced (root span replay.request),
/// then probes the sample's keys once more (root replay.probe_again) so a
/// warmed probe is measured on every workload.
void replay_solves(const SolveWorkload& workload, std::uint64_t warm,
                   const std::vector<std::uint64_t>& sample, Tracer& tracer);

/// Mean microseconds of one engine::BatchSolver::solve_items tick (2
/// workers, 64 MiB cache) over `sample` in batches of `batch`, after the
/// same untraced warm-up.
[[nodiscard]] double engine_tick_us(const SolveWorkload& workload,
                                    std::uint64_t warm,
                                    const std::vector<std::uint64_t>& sample,
                                    std::size_t batch);

/// Replays the first `warm_frames` frames of `input` untraced and the next
/// `sample_frames` traced (root span replay.frame). Returns the mean
/// microseconds of engine::BatchSolver::solve_item (2 workers, 64 MiB
/// cache, cold) on the replans the traced frames fired.
double replay_session(const SessionInput& input, std::size_t warm_frames,
                      std::size_t sample_frames, Tracer& tracer);

}  // namespace e2e
