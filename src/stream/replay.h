// The serial replay reference for streaming sessions: replays an
// (initial instance, delta log, trigger config) tuple one delta at a time
// through a ClusterSession wired to the engine's serial reference solver,
// so every plan a concurrent multi-reactor server streams — and every
// post-apply session state digest — is byte-comparable to this function's
// output. The streaming analogue of engine::cached_serial_reference.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/instance.h"
#include "core/types.h"
#include "stream/session.h"

namespace lrb::stream {

/// The solve hook the reference uses: engine::cached_serial_reference,
/// which every server replan equals whatever its cache budget. Also handed
/// to reference mirrors that step a session incrementally
/// (svc::run_session_stream).
[[nodiscard]] SolveFn serial_reference_solver();
/// Kept for e2ebench/, which passes `true`; the flag is ignored.
[[nodiscard]] SolveFn serial_reference_solver(bool cached);

struct ReplayOptions {
  /// Kept for e2ebench/, which sets it; ignored (there is one reference).
  bool cached = false;
};

/// The reference transcript of one delta: what a server ack for this delta
/// must agree with, byte for byte, after re-encoding.
struct ReplayStep {
  std::uint64_t seq = 0;
  bool applied = false;
  std::string error;  ///< rejection text when !applied
  std::vector<SessionPlan> plans;
  Size makespan = 0;
  Size lower_bound = 0;
  std::uint64_t digest = 0;  ///< post-apply session state digest
};

struct ReplayResult {
  bool ok = false;
  std::string error;  ///< set when the open itself failed
  /// Post-open state (what a SessionOpenOk reply must carry).
  Size open_makespan = 0;
  Size open_lower_bound = 0;
  std::uint64_t open_digest = 0;
  std::vector<ReplayStep> steps;  ///< one per delta, seq = index + 1
  SessionStats final_stats;
};

/// Replays the deltas serially (seq = index + 1) against a fresh session.
/// Pure function of its arguments — the determinism oracle for every
/// concurrent streaming path (lrb_stream --check, tests, chaos).
[[nodiscard]] ReplayResult replay_serial_reference(
    const Instance& initial, const TriggerConfig& config,
    std::span<const Delta> deltas, const ReplayOptions& options = {});

}  // namespace lrb::stream
