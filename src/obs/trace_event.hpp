// Chrome trace-event JSON emission (the "JSON Array Format" consumed by
// Perfetto and chrome://tracing).
//
// The pipeline observer records per-instruction lifecycle slices and PFU
// reconfiguration spans as they retire; this log collects the events and
// serializes them as {"traceEvents":[...]} with `ts` expressed in
// simulated cycles (one cycle renders as one microsecond in the viewer —
// only relative placement matters). Events are kept in emission order and
// stably sorted by `ts` at dump time, which preserves B/E nesting for
// same-timestamp pairs: an instruction's events are always appended
// begin-before-end, and slot/unit rows are exclusively occupied, so the
// per-tid sequence is balanced and monotone by construction (pinned by the
// schema test in tests/obs).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/json.hpp"

namespace t1000::obs {

struct TraceEvent {
  std::string name;
  char ph = 'i';          // 'B','E','i','M' (Chrome format spec)
  std::uint64_t ts = 0;   // simulated cycle
  int pid = 0;            // track group (process)
  int tid = 0;            // track (thread)
  Json args;              // null = omitted
};

class TraceEventLog {
 public:
  void begin(std::string name, std::uint64_t ts, int pid, int tid,
             Json args = Json());
  void end(std::uint64_t ts, int pid, int tid);
  void instant(std::string name, std::uint64_t ts, int pid, int tid,
               Json args = Json());
  // Metadata: names the track/track-group in the viewer.
  void name_process(int pid, std::string name);
  void name_thread(int pid, int tid, std::string name);

  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  const std::vector<TraceEvent>& events() const { return events_; }

  // {"traceEvents":[...]}: metadata first, then slice/instant events
  // stably sorted by ts. Deterministic for a deterministic simulation.
  Json to_json() const;

 private:
  void add(TraceEvent ev);

  std::vector<TraceEvent> events_;
  std::vector<TraceEvent> metadata_;
};

}  // namespace t1000::obs
