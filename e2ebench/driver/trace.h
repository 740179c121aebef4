// In-memory spans for the traced run. Each span has a name, a start and an
// end (steady-clock ns), its parent span and the request it belongs to;
// spans are appended to a vector and written out when the run ends. A
// layer's self time is its span's duration minus the time its child
// spans cover.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the same span vector
  std::uint64_t request = 0;
};

/// Single-threaded span recorder with an implicit parent stack.
class Tracer {
 public:
  /// Opens a span under the innermost open one; returns its index.
  std::int32_t begin(const char* name, std::uint64_t request);
  void end(std::int32_t id);
  /// Renames a span after the fact (e.g. a probe that turned out a hit).
  void rename(std::int32_t id, const char* name) { spans_[id].name = name; }
  /// Appends a finished span with an explicit parent.
  std::int32_t add(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int32_t parent,
                   std::uint64_t request);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t request)
      : tracer_(tracer), id_(tracer.begin(name, request)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::int32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::int32_t id_;
};

struct SpanSummary {
  std::uint64_t count = 0;
  double total_us = 0.0;  ///< summed durations
  double self_us = 0.0;   ///< summed self times
  [[nodiscard]] double mean_total_us() const {
    return count ? total_us / static_cast<double>(count) : 0.0;
  }
  [[nodiscard]] double mean_self_us() const {
    return count ? self_us / static_cast<double>(count) : 0.0;
  }
};

/// Per-name totals over `spans`.
[[nodiscard]] std::map<std::string, SpanSummary> summarize(
    const std::vector<Span>& spans);

/// Writes one CSV row per span (index, parent, request, name, start_ns,
/// end_ns, self_ns) under a header row; returns false on an IO error.
bool write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace e2e
