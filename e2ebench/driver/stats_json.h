// Reads the few values the benchmark needs out of an lrb_serve Stats reply
// (schema lrb-stats-v1, obs::Registry::to_json): counters by name, and a
// histogram's count, retained sample count and mean. The snapshot format
// is fixed-layout JSON written by one function, so a name lookup is enough.

#pragma once

#include <cstdint>
#include <string>

namespace e2e {

struct HistogramStat {
  std::uint64_t count = 0;     ///< samples ever recorded
  std::uint64_t retained = 0;  ///< samples the mean covers
  double mean = 0.0;
};

/// Counter value; 0 when the counter is not registered yet.
[[nodiscard]] std::uint64_t stats_counter(const std::string& json,
                                          const std::string& name);

/// Histogram summary; all zero when the histogram is not registered yet.
[[nodiscard]] HistogramStat stats_histogram(const std::string& json,
                                            const std::string& name);

/// Mean of the last `samples` samples recorded by the later snapshot.
struct WindowMean {
  double mean = 0.0;
  std::uint64_t samples = 0;
};

/// Mean of the samples recorded between two snapshots of one histogram.
/// Exact while the histogram has never dropped a sample from its
/// reservoir; after that, the mean of the retained window (the last
/// `retained` samples), which lies inside the phase whenever the phase
/// recorded at least that many.
[[nodiscard]] WindowMean phase_mean(const HistogramStat& before,
                                    const HistogramStat& after);

}  // namespace e2e
