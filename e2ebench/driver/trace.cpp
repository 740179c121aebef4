#include "trace.h"

#include <fstream>

#include "common.h"

namespace e2e {

namespace {

/// Self time of every span: its duration minus its children's durations
/// (children are sequential and nested inside the parent by construction).
std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -=
          span.end_ns - span.start_ns;
    }
  }
  return self;
}

}  // namespace

std::int32_t Tracer::begin(const char* name, std::uint64_t request) {
  Span span;
  span.name = name;
  span.request = request;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = now_ns();
  spans_.push_back(span);
  open_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
  return open_.back();
}

void Tracer::end(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::int32_t Tracer::add(const char* name, std::int64_t start_ns,
                         std::int64_t end_ns, std::int32_t parent,
                         std::uint64_t request) {
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::map<std::string, SpanSummary> summarize(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, SpanSummary> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanSummary& s = out[spans[i].name];
    ++s.count;
    s.total_us += ns_to_us(spans[i].end_ns - spans[i].start_ns);
    s.self_us += ns_to_us(self[i]);
  }
  return out;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::ofstream out(path);
  out << "index,parent,request,name,start_ns,end_ns,self_ns\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << i << ',' << s.parent << ',' << s.request << ',' << s.name << ','
        << s.start_ns << ',' << s.end_ns << ',' << self[i] << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace e2e
