#include "stats_json.h"

#include <cstdlib>

namespace e2e {

namespace {

/// Position just past `"name": ` inside the section that starts with
/// `"section": {`, or npos.
std::size_t find_value(const std::string& json, const std::string& section,
                       const std::string& name) {
  const std::size_t begin = json.find("\"" + section + "\": {");
  if (begin == std::string::npos) return std::string::npos;
  const std::string key = "\"" + name + "\": ";
  const std::size_t at = json.find(key, begin);
  if (at == std::string::npos) return std::string::npos;
  return at + key.size();
}

double number_after(const std::string& json, std::size_t from,
                    const std::string& field) {
  const std::string key = "\"" + field + "\": ";
  const std::size_t at = json.find(key, from);
  if (at == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + at + key.size(), nullptr);
}

}  // namespace

std::uint64_t stats_counter(const std::string& json, const std::string& name) {
  const std::size_t at = find_value(json, "counters", name);
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at, nullptr, 10);
}

HistogramStat stats_histogram(const std::string& json,
                              const std::string& name) {
  HistogramStat stat;
  const std::size_t at = find_value(json, "histograms", name);
  if (at == std::string::npos) return stat;
  stat.count = static_cast<std::uint64_t>(number_after(json, at, "count"));
  stat.retained =
      static_cast<std::uint64_t>(number_after(json, at, "retained"));
  stat.mean = number_after(json, at, "mean");
  return stat;
}

WindowMean phase_mean(const HistogramStat& before,
                      const HistogramStat& after) {
  const std::uint64_t added = after.count - before.count;
  if (added == 0) return {};
  if (after.count == after.retained) {
    const double sum = after.mean * static_cast<double>(after.count) -
                       before.mean * static_cast<double>(before.count);
    return {sum / static_cast<double>(added), added};
  }
  return {after.mean, after.retained};
}

}  // namespace e2e
