// In-memory span recorder for the traced benchmark run.
//
// The benchmark records spans in its own code, around each call it makes
// into a library layer: name, start, end, parent span, and the trace id
// of the sweep or request the call belongs to. Spans stay in memory while
// the run measures and are written out once it ends. A layer's self time
// is its spans' durations minus the part their child spans cover.
//
// A disabled log records nothing, so the untraced run pays one branch per
// would-be span. One log belongs to one thread; the serve clients each
// keep their own and the driver absorbs them after joining.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// Nanoseconds on the steady clock; every span and timer uses it.
std::int64_t now_ns();
double ms_between(std::int64_t start_ns, std::int64_t end_ns);

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into the same log; -1 = root
  std::uint64_t trace = 0;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  // Trace id stamped on the spans begun from now on.
  void set_trace(std::uint64_t trace) { trace_ = trace; }

  // Returns the span's index, or -1 when the log is disabled.
  int begin(std::string_view name);
  void end(int index);
  // Renames a span once its outcome is known (a poll that was the fetch).
  void rename(int index, std::string_view name);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  // Appends `other`'s spans, re-basing their parent indices.
  void absorb(const SpanLog& other);

  // Self time in ms per trace id, then per span name.
  std::map<std::uint64_t, std::map<std::string, double>> self_ms() const;

  // One JSON object per line: name, start/end in ns, parent, trace.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::uint64_t trace_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;  // stack of begun, not yet ended spans
};

// Scoped span: begins on construction, ends on destruction.
class Span {
 public:
  Span(SpanLog& log, std::string_view name)
      : log_(log), index_(log.begin(name)) {}
  ~Span() { log_.end(index_); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog& log_;
  int index_;
};

// Nanoseconds one begin/end pair costs on this host, measured by
// recording `pairs` spans into a scratch log.
double calibrate_span_ns(int pairs);

}  // namespace perfbench
