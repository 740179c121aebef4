// Small shared helpers of the lrb_e2e load generator: one monotonic clock
// in integer nanoseconds, sample percentiles, and a bounded parallel loop
// for the off-the-clock reference checks.

#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double ns_to_ms(std::int64_t ns) {
  return static_cast<double>(ns) * 1e-6;
}

[[nodiscard]] inline double ns_to_us(std::int64_t ns) {
  return static_cast<double>(ns) * 1e-3;
}

/// Nearest-rank percentile of `samples` (sorted in place); 0 when empty.
[[nodiscard]] inline double percentile(std::vector<double>& samples,
                                       double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size());
  std::size_t index = static_cast<std::size_t>(rank);
  if (static_cast<double>(index) == rank && index > 0) --index;
  return samples[std::min(index, samples.size() - 1)];
}

[[nodiscard]] inline double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

/// Runs fn(i) for every i in [0, n) on up to `threads` threads (work is
/// claimed one index at a time, so uneven items balance out).
inline void parallel_for_index(std::size_t n, std::size_t threads,
                               const std::function<void(std::size_t)>& fn) {
  threads = std::max<std::size_t>(1, std::min(threads, n));
  std::atomic<std::size_t> next{0};
  auto body = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      fn(i);
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(body);
  body();
  for (auto& t : pool) t.join();
}

}  // namespace e2e
