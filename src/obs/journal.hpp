// Cross-layer request tracing: TraceContext propagation plus an
// append-only JSONL event journal.
//
// A TraceContext names one logical request — a serve job, a bench grid, a
// --local run — with a trace id, and one position inside it with a span
// id. The context is threaded *explicitly* across thread boundaries (the
// serve runner hands it to the grid via GridOptions, the grid workers
// stamp it on each run) and *implicitly* within a thread via a thread-local
// current-context stack (ScopedTraceContext), so deep layers — the
// experiment's decode/record/replay/verify phases, the cache operations —
// can attach child spans without every signature in between growing a
// tracing parameter.
//
// The Journal is the event sink: every begin/end/instant event is appended
// to a bounded in-memory ring (which the serve layer streams to clients as
// NDJSON, see /v1/jobs/<id>/events) and, when a path is configured, to an
// append-only JSONL file. Disk writes are crash-safe at line granularity:
// each event is rendered to one complete line and written with a single
// fwrite + fflush, so a crash can tear at most the final line and can
// never interleave events from concurrent writers (appends serialize under
// the journal mutex). The file is *bounded*: once the active file would
// exceed max_bytes it is rotated to `<path>.1` (replacing any previous
// rotation) and restarted, so a long-lived daemon holds at most ~2x
// max_bytes of journal on disk.
//
// Event schema (one JSON object per line, stable member order):
//   {"seq": N,            monotone per journal, never reused
//    "ts_ms": T,          milliseconds since journal construction
//    "trace": "hex",      trace id (16 hex digits)
//    "span": "hex",       this event's span id ("0" for instants)
//    "parent": "hex",     enclosing span id ("0" at the root)
//    "kind": "B"|"E"|"i", span begin / span end / instant
//    "name": "...",       event name, e.g. "run", "phase.replay"
//    "attrs": {...}}      optional structured payload (omitted when null)
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "harness/json.hpp"

namespace t1000::obs {

// One request's identity (trace_id) and the enclosing span (span_id) new
// child spans should parent under. Value-semantic and cheap to copy; a
// zero trace_id means "not tracing" and every emission gated on it is a
// no-op.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;  // parent for children; 0 = root

  bool active() const { return trace_id != 0; }
};

// The calling thread's current context. Layers that cannot receive a
// context by parameter (the experiment's phase timers, deep in the run
// path) read this; layers that own a scheduling boundary (grid workers,
// the serve runner) install it with ScopedTraceContext.
const TraceContext& current_trace_context();

// RAII install/restore of the thread-local current context.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& context);
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
};

struct JournalEvent {
  std::uint64_t seq = 0;  // assigned by append()
  double ts_ms = 0.0;     // assigned by append(): ms since construction
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  char kind = 'i';  // 'B' span begin, 'E' span end, 'i' instant
  std::string name;
  Json attrs;  // null = omitted from the serialized line
};

// Renders one event as its canonical single-line JSON (no newline).
// Deterministic member order; shared by the disk writer, the streaming
// route, and the schema tests.
std::string journal_event_line(const JournalEvent& event);

class Journal {
 public:
  struct Options {
    std::string path;  // empty = in-memory only (ring still works)
    // Rotate the active file to `<path>.1` when the next line would push
    // it past this size.
    std::uint64_t max_bytes = 64ull << 20;
    // In-memory ring of recent events kept for subscribers; older events
    // are dropped from the ring (the disk file still has them).
    std::size_t ring_capacity = 8192;
  };

  Journal();  // in-memory only, default bounds
  explicit Journal(Options options);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  // Process-unique id mint (shared across trace and span ids).
  std::uint64_t new_id();

  // Stamps seq + ts_ms, appends to the ring, writes the line to disk (when
  // configured), and wakes subscribers. Thread-safe.
  void append(JournalEvent event);

  // Span emission helpers. begin_span returns the new span's id; the
  // matching end_span names the same id. instant() attaches a point event
  // to `context`'s span.
  std::uint64_t begin_span(const TraceContext& context, std::string name,
                           Json attrs = Json());
  void end_span(const TraceContext& context, std::uint64_t span_id,
                std::string name, Json attrs = Json());
  void instant(const TraceContext& context, std::string name,
               Json attrs = Json());

  // RAII begin/end pair; end attrs can be filled before destruction.
  class SpanScope {
   public:
    SpanScope(Journal* journal, const TraceContext& context, std::string name,
              Json attrs = Json());
    ~SpanScope();
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

    // The context children of this span should parent under.
    TraceContext context() const { return {context_.trace_id, span_id_}; }
    void set_end_attrs(Json attrs) { end_attrs_ = std::move(attrs); }

   private:
    Journal* journal_;  // null = inactive scope (no journal / no trace)
    TraceContext context_;
    std::uint64_t span_id_ = 0;
    std::string name_;
    Json end_attrs_;
  };

  // Copies ring events with seq > after_seq, filtered by trace id (0 =
  // all). Blocks up to `wait` for at least one matching event; returns
  // immediately when some already exist. An empty result means the wait
  // timed out.
  std::vector<JournalEvent> poll(std::uint64_t after_seq,
                                 std::uint64_t trace_id,
                                 std::chrono::milliseconds wait);

  // Observability of the journal itself.
  std::uint64_t events_appended() const;
  std::uint64_t ring_dropped() const;   // ring-capacity evictions
  std::uint64_t disk_rotations() const;
  std::uint64_t disk_errors() const;
  std::uint64_t last_seq() const;
  const std::string& path() const { return options_.path; }

 private:
  void write_line_locked(const std::string& line);  // file_ must be open

  Options options_;
  std::chrono::steady_clock::time_point start_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<JournalEvent> ring_;
  std::uint64_t next_seq_ = 1;
  std::atomic<std::uint64_t> next_id_{1};
  std::FILE* file_ = nullptr;
  std::uint64_t file_bytes_ = 0;
  std::uint64_t appended_ = 0;
  std::uint64_t ring_dropped_ = 0;
  std::uint64_t rotations_ = 0;
  std::uint64_t disk_errors_ = 0;
};

}  // namespace t1000::obs
