#include "obs/trace_event.hpp"

#include <algorithm>
#include <utility>

namespace t1000::obs {

void TraceEventLog::add(TraceEvent ev) { events_.push_back(std::move(ev)); }

void TraceEventLog::begin(std::string name, std::uint64_t ts, int pid,
                          int tid, Json args) {
  TraceEvent ev;
  ev.name = std::move(name);
  ev.ph = 'B';
  ev.ts = ts;
  ev.pid = pid;
  ev.tid = tid;
  ev.args = std::move(args);
  add(std::move(ev));
}

void TraceEventLog::end(std::uint64_t ts, int pid, int tid) {
  TraceEvent ev;
  ev.ph = 'E';
  ev.ts = ts;
  ev.pid = pid;
  ev.tid = tid;
  add(std::move(ev));
}

void TraceEventLog::instant(std::string name, std::uint64_t ts, int pid,
                            int tid, Json args) {
  TraceEvent ev;
  ev.name = std::move(name);
  ev.ph = 'i';
  ev.ts = ts;
  ev.pid = pid;
  ev.tid = tid;
  ev.args = std::move(args);
  add(std::move(ev));
}

void TraceEventLog::name_process(int pid, std::string name) {
  TraceEvent ev;
  ev.name = "process_name";
  ev.ph = 'M';
  ev.pid = pid;
  ev.args = Json::object();
  ev.args["name"] = Json(std::move(name));
  metadata_.push_back(std::move(ev));
}

void TraceEventLog::name_thread(int pid, int tid, std::string name) {
  TraceEvent ev;
  ev.name = "thread_name";
  ev.ph = 'M';
  ev.pid = pid;
  ev.tid = tid;
  ev.args = Json::object();
  ev.args["name"] = Json(std::move(name));
  metadata_.push_back(std::move(ev));
}

Json TraceEventLog::to_json() const {
  std::vector<const TraceEvent*> order;
  order.reserve(events_.size());
  for (const TraceEvent& ev : events_) order.push_back(&ev);
  std::stable_sort(order.begin(), order.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     return a->ts < b->ts;
                   });

  const auto render = [](const TraceEvent& ev) {
    Json j = Json::object();
    j["name"] = Json(ev.name);
    j["ph"] = Json(std::string(1, ev.ph));
    j["ts"] = Json(ev.ts);
    j["pid"] = Json(ev.pid);
    j["tid"] = Json(ev.tid);
    if (ev.ph == 'i') j["s"] = Json("g");  // global-scope instant
    if (!ev.args.is_null()) j["args"] = ev.args;
    return j;
  };

  Json arr = Json::array();
  for (const TraceEvent& ev : metadata_) arr.push_back(render(ev));
  for (const TraceEvent* ev : order) arr.push_back(render(*ev));
  Json doc = Json::object();
  doc["traceEvents"] = std::move(arr);
  return doc;
}

}  // namespace t1000::obs
