#include "spans.hpp"

#include <chrono>
#include <cstdio>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ms_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

int SpanLog::begin(std::string_view name) {
  if (!enabled_) return -1;
  SpanRecord record;
  record.name = std::string(name);
  record.parent = open_.empty() ? -1 : open_.back();
  record.trace = trace_;
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(std::move(record));
  open_.push_back(index);
  spans_.back().start_ns = now_ns();
  return index;
}

void SpanLog::end(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  // Spans are scoped, so the one ending is the innermost open one.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void SpanLog::rename(int index, std::string_view name) {
  if (index >= 0) spans_[static_cast<std::size_t>(index)].name = name;
}

void SpanLog::absorb(const SpanLog& other) {
  const int base = static_cast<int>(spans_.size());
  for (SpanRecord record : other.spans_) {
    if (record.parent >= 0) record.parent += base;
    spans_.push_back(std::move(record));
  }
}

std::map<std::uint64_t, std::map<std::string, double>> SpanLog::self_ms()
    const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      child_ms[static_cast<std::size_t>(s.parent)] +=
          ms_between(s.start_ns, s.end_ns);
    }
  }
  std::map<std::uint64_t, std::map<std::string, double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out[s.trace][s.name] += ms_between(s.start_ns, s.end_ns) - child_ms[i];
  }
  return out;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"trace\":%llu}\n",
                 s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.trace));
  }
  return std::fclose(f) == 0;
}

double calibrate_span_ns(int pairs) {
  SpanLog scratch(true);
  const std::int64_t start = now_ns();
  for (int i = 0; i < pairs; ++i) {
    const Span span(scratch, "calibrate");
  }
  return static_cast<double>(now_ns() - start) / pairs;
}

}  // namespace perfbench
