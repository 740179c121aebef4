// The off-the-clock checks. Every OK Solve reply is byte-compared with
// engine::cached_serial_reference (the server runs its cache). Every
// session ack is byte-compared with a mirror: a ClusterSession stepped
// frame by frame through stream::serial_reference_solver(cached), which
// is how stream::replay_serial_reference builds its transcript, reading
// the lower bound and digest once per frame as the server does. The
// leading frames are also compared with the replay_serial_reference
// transcript itself, which reads them after every delta and so costs
// several times the server's own work over a whole run. Each check also
// runs a self-test: a copy of one checked reply with a single byte flipped
// must be reported as a mismatch.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "service_driver.h"
#include "workloads.h"

namespace e2e {

struct CheckResult {
  std::uint64_t compared = 0;
  std::uint64_t mismatches = 0;
  std::string first_mismatch;
  bool selftest_caught = false;  ///< the flipped byte was reported
};

/// Folds one delta's outcome into its frame's ack the way the server
/// aggregates a SessionDelta frame: applied/rejected counts, the first
/// rejection text, and the plans in order.
void fold_step(svc::SessionDeltaReply& reply, bool applied,
               const std::string& error,
               const std::vector<stream::SessionPlan>& plans);

/// Checks every OK reply of `phases`. Fills ratio_means[i] with the mean of
/// makespan / combined_lower_bound(instance, k) over phase i's OK replies.
[[nodiscard]] CheckResult check_solve_phases(
    SolveWorkload& workload, const std::vector<const SolvePhase*>& phases,
    std::size_t threads, std::vector<double>* ratio_means);

/// Checks every session's open ack and every frame ack against the mirror,
/// and the first `transcript_frames` frame acks against the transcript.
[[nodiscard]] CheckResult check_sessions(
    const std::vector<const SessionConnection*>& sessions,
    std::size_t transcript_frames, std::size_t threads);

}  // namespace e2e
