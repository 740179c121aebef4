// Random job traces for streaming sessions: interleaved arrivals and
// departures, the dynamic setting the paper's abstract opens with ("in
// most real world scenarios the load is a dynamic measure, the initial
// assignment may not remain optimal with time"). Arrivals are auto-placed
// (Graham's least-loaded rule, applied by ClusterSession); departures punch
// holes that erode any placement - which is exactly when bounded
// rebalancing earns its keep.

#pragma once

#include <cstdint>
#include <vector>

#include "core/types.h"
#include "stream/session.h"

namespace lrb::stream {

struct TraceOptions {
  std::size_t num_events = 1000;
  /// Probability that an event is a departure (when any job is alive).
  double departure_fraction = 0.4;
  Size min_size = 1;
  Size max_size = 100;
  Cost min_cost = 1;
  Cost max_cost = 1;
  /// Departures pick a random alive job; with bias_large_departures the
  /// victim is the LARGEST alive job half the time (adversarial-ish: the
  /// holes left behind are big).
  bool bias_large_departures = false;
};

/// Generates `options.num_events` session deltas. Arrival i (in arrival
/// order) is a kJobArrive of stable id `first_job_id + i` with kAutoPlace;
/// a departure is a kJobDepart of an id that is alive at that point, so
/// every delta applies on a session that holds no other job in that id
/// range. Deterministic in (options, seed, first_job_id).
[[nodiscard]] std::vector<Delta> random_trace(const TraceOptions& options,
                                              std::uint64_t seed,
                                              std::uint64_t first_job_id = 0);

}  // namespace lrb::stream
