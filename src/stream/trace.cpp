#include "stream/trace.h"

#include <algorithm>
#include <vector>

#include "util/rng.h"

namespace lrb::stream {

std::vector<Delta> random_trace(const TraceOptions& options,
                                std::uint64_t seed,
                                std::uint64_t first_job_id) {
  Rng rng(seed);
  std::vector<Delta> trace;
  trace.reserve(options.num_events);
  // Alive set: job ids + sizes (for the biased victim choice).
  std::vector<std::uint64_t> alive;
  std::vector<Size> alive_size;
  std::uint64_t next_id = first_job_id;

  for (std::size_t e = 0; e < options.num_events; ++e) {
    const bool depart =
        !alive.empty() && rng.bernoulli(options.departure_fraction);
    Delta delta;
    if (depart) {
      std::size_t pick;
      if (options.bias_large_departures && rng.bernoulli(0.5)) {
        pick = static_cast<std::size_t>(
            std::max_element(alive_size.begin(), alive_size.end()) -
            alive_size.begin());
      } else {
        pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<Size>(alive.size()) - 1));
      }
      delta.kind = DeltaKind::kJobDepart;
      delta.id = alive[pick];
      alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(pick));
      alive_size.erase(alive_size.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      delta.kind = DeltaKind::kJobArrive;
      delta.id = next_id++;
      delta.size = rng.uniform_int(options.min_size, options.max_size);
      delta.move_cost = rng.uniform_int(options.min_cost, options.max_cost);
      delta.proc = kAutoPlace;
      alive.push_back(delta.id);
      alive_size.push_back(delta.size);
    }
    trace.push_back(delta);
  }
  return trace;
}

}  // namespace lrb::stream
