#include "obs/journal.hpp"

#include <cstdio>
#include <utility>

namespace t1000::obs {
namespace {

thread_local TraceContext g_current_context;

// Hex id rendering: ids are opaque tokens, and hex keeps them compact and
// greppable between the journal, the Perfetto flow ids, and the API.
Json hex_id(std::uint64_t id) { return Json(to_hex(id)); }

}  // namespace

const TraceContext& current_trace_context() { return g_current_context; }

ScopedTraceContext::ScopedTraceContext(const TraceContext& context)
    : saved_(g_current_context) {
  g_current_context = context;
}

ScopedTraceContext::~ScopedTraceContext() { g_current_context = saved_; }

std::string journal_event_line(const JournalEvent& event) {
  Json j = Json::object();
  j["seq"] = Json(event.seq);
  j["ts_ms"] = Json(event.ts_ms);
  j["trace"] = hex_id(event.trace_id);
  j["span"] = hex_id(event.span_id);
  j["parent"] = hex_id(event.parent_id);
  j["kind"] = Json(std::string(1, event.kind));
  j["name"] = Json(event.name);
  if (!event.attrs.is_null()) j["attrs"] = event.attrs;
  return j.dump();
}

Journal::Journal() : Journal(Options()) {}

Journal::Journal(Options options)
    : options_(std::move(options)), start_(std::chrono::steady_clock::now()) {
  if (!options_.path.empty()) {
    file_ = std::fopen(options_.path.c_str(), "ab");
    if (file_ == nullptr) {
      ++disk_errors_;
    } else {
      const long pos = std::ftell(file_);
      file_bytes_ = pos > 0 ? static_cast<std::uint64_t>(pos) : 0;
    }
  }
}

Journal::~Journal() {
  if (file_ != nullptr) std::fclose(file_);
}

std::uint64_t Journal::new_id() {
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

void Journal::write_line_locked(const std::string& line) {
  if (options_.max_bytes > 0 &&
      file_bytes_ + line.size() > options_.max_bytes && file_bytes_ > 0) {
    // Bounded-size rotation: the active file moves to <path>.1 (replacing
    // the previous rotation) and a fresh file starts, so the journal never
    // holds more than ~2x max_bytes on disk.
    std::fclose(file_);
    file_ = nullptr;
    const std::string rotated = options_.path + ".1";
    if (std::rename(options_.path.c_str(), rotated.c_str()) != 0) {
      ++disk_errors_;
    } else {
      ++rotations_;
    }
    file_ = std::fopen(options_.path.c_str(), "wb");
    file_bytes_ = 0;
    if (file_ == nullptr) {
      ++disk_errors_;
      return;
    }
  }
  // One complete line per write, flushed immediately: a crash can tear at
  // most the final line, and concurrent appends (serialized by mu_) can
  // never interleave.
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
      std::fputc('\n', file_) == EOF || std::fflush(file_) != 0) {
    ++disk_errors_;
    return;
  }
  file_bytes_ += line.size() + 1;
}

void Journal::append(JournalEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  event.seq = next_seq_++;
  event.ts_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
  // Rendering costs a full Json dump under the mutex; without a disk tier
  // (the daemon's default) nothing would read the line.
  if (file_ != nullptr) write_line_locked(journal_event_line(event));
  ring_.push_back(std::move(event));
  if (options_.ring_capacity > 0 && ring_.size() > options_.ring_capacity) {
    ring_.pop_front();
    ++ring_dropped_;
  }
  ++appended_;
  cv_.notify_all();
}

std::uint64_t Journal::begin_span(const TraceContext& context,
                                  std::string name, Json attrs) {
  if (!context.active()) return 0;
  JournalEvent ev;
  ev.trace_id = context.trace_id;
  ev.span_id = new_id();
  ev.parent_id = context.span_id;
  ev.kind = 'B';
  ev.name = std::move(name);
  ev.attrs = std::move(attrs);
  const std::uint64_t id = ev.span_id;
  append(std::move(ev));
  return id;
}

void Journal::end_span(const TraceContext& context, std::uint64_t span_id,
                       std::string name, Json attrs) {
  if (!context.active() || span_id == 0) return;
  JournalEvent ev;
  ev.trace_id = context.trace_id;
  ev.span_id = span_id;
  ev.parent_id = context.span_id;
  ev.kind = 'E';
  ev.name = std::move(name);
  ev.attrs = std::move(attrs);
  append(std::move(ev));
}

void Journal::instant(const TraceContext& context, std::string name,
                      Json attrs) {
  if (!context.active()) return;
  JournalEvent ev;
  ev.trace_id = context.trace_id;
  ev.span_id = 0;
  ev.parent_id = context.span_id;
  ev.kind = 'i';
  ev.name = std::move(name);
  ev.attrs = std::move(attrs);
  append(std::move(ev));
}

Journal::SpanScope::SpanScope(Journal* journal, const TraceContext& context,
                              std::string name, Json attrs)
    : journal_(journal), context_(context), name_(std::move(name)) {
  if (journal_ == nullptr || !context_.active()) {
    journal_ = nullptr;
    return;
  }
  span_id_ = journal_->begin_span(context_, name_, std::move(attrs));
}

Journal::SpanScope::~SpanScope() {
  if (journal_ == nullptr) return;
  journal_->end_span(context_, span_id_, name_, std::move(end_attrs_));
}

std::vector<JournalEvent> Journal::poll(std::uint64_t after_seq,
                                        std::uint64_t trace_id,
                                        std::chrono::milliseconds wait) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto matches = [&] {
    for (const JournalEvent& ev : ring_) {
      if (ev.seq > after_seq &&
          (trace_id == 0 || ev.trace_id == trace_id)) {
        return true;
      }
    }
    return false;
  };
  if (!matches()) cv_.wait_for(lock, wait, matches);
  std::vector<JournalEvent> out;
  for (const JournalEvent& ev : ring_) {
    if (ev.seq > after_seq && (trace_id == 0 || ev.trace_id == trace_id)) {
      out.push_back(ev);
    }
  }
  return out;
}

std::uint64_t Journal::events_appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appended_;
}

std::uint64_t Journal::ring_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_dropped_;
}

std::uint64_t Journal::disk_rotations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rotations_;
}

std::uint64_t Journal::disk_errors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return disk_errors_;
}

std::uint64_t Journal::last_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_ - 1;
}

}  // namespace t1000::obs
