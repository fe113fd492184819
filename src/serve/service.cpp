#include "serve/service.hpp"

#include <chrono>
#include <cstdlib>
#include <optional>
#include <set>
#include <utility>

#include "harness/serialize.hpp"
#include "obs/prometheus.hpp"
#include "workloads/workload.hpp"

namespace t1000::serve {
namespace {

// Every JSON body the API sends, a finished job's stored results included.
std::string render_body(const Json& body) {
  std::string out = body.dump(2);
  out += '\n';
  return out;
}

HttpResponse json_response(int status, const Json& body) {
  HttpResponse r;
  r.status = status;
  r.body = render_body(body);
  return r;
}

HttpResponse error_json(int status, std::string_view message) {
  Json body = Json::object();
  body["error"] = Json(message);
  return json_response(status, body);
}

// Parses the decimal job id segment; returns false on anything else
// (callers answer 404 — a malformed id names no job).
bool parse_job_id(std::string_view segment, std::uint64_t* out) {
  if (segment.empty() || segment.size() > 18) return false;
  std::uint64_t value = 0;
  for (const char c : segment) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

// One Chrome trace event of the /v1/trace document, on the serve process
// (pid 1) and the job's own track (tid = job id). `ts` is microseconds.
Json trace_event(std::string_view name, char ph, double ts_ms,
                 std::uint64_t job, std::uint64_t flow = 0) {
  Json ev = Json::object();
  ev["name"] = Json(name);
  ev["ph"] = Json(std::string(1, ph));
  ev["ts"] = Json(static_cast<std::uint64_t>(ts_ms * 1000.0));
  ev["pid"] = Json(1);
  ev["tid"] = Json(job);
  if (flow != 0) {
    ev["id"] = Json(to_hex(flow));
    // Bind the finish to the enclosing slice so the arrow lands on the
    // job's "run" slice rather than on whatever slice starts next.
    if (ph == 'f') ev["bp"] = Json("e");
  }
  return ev;
}

// Metadata naming the serve process ("process_name") or a job's track
// ("thread_name").
Json track_name_event(std::string_view kind, std::uint64_t job,
                      std::string name) {
  Json ev = trace_event(kind, 'M', 0.0, job);
  Json args = Json::object();
  args["name"] = Json(std::move(name));
  ev["args"] = std::move(args);
  return ev;
}

}  // namespace

std::string_view job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
  }
  return "unknown";
}

SimService::SimService(ServiceOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_dir, options_.cache_budget_bytes),
      journal_(obs::Journal::Options{options_.journal_path,
                                     options_.journal_max_bytes,
                                     /*ring_capacity=*/8192}) {
  lane_ = std::thread([this] { lane_main(); });
  runner_ = std::thread([this] { runner_main(); });
}

SimService::~SimService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  lane_cv_.notify_all();
  runner_cv_.notify_all();
  if (lane_.joinable()) lane_.join();
  if (runner_.joinable()) runner_.join();
}

bool SimService::shutdown_requested() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shutdown_requested_;
}

SimService::ParsedRequest SimService::parse_request(
    const Json& request) const {
  // Each level that must be an object is named, as the member readers name
  // a member ("member \"dl1\" must be an object").
  if (!request.is_object()) throw JsonError("grid request must be an object");
  for (const auto& member : request.members()) {
    if (member.first != "runs" && member.first != "options") {
      throw JsonError("unknown member \"" + member.first +
                      "\" in grid request");
    }
  }

  ParsedRequest parsed;
  parsed.options.jobs = options_.jobs;
  parsed.options.run_budget_ms = options_.default_run_budget_ms;
  parsed.options.fail_limit = options_.fail_limit;

  if (const Json* opts = request.find("options")) {
    if (!opts->is_object()) {
      throw JsonError("member \"options\" must be an object");
    }
    for (const auto& member : opts->members()) {
      const std::string& name = member.first;
      const Json& value = member.second;
      if (name == "verify") {
        read_scalar(value, name, &parsed.options.verify);
      } else if (name == "observe") {
        read_scalar(value, name, &parsed.options.observe);
      } else if (name == "batch") {
        read_scalar(value, name, &parsed.options.batch);
      } else if (name == "run_budget_ms") {
        read_scalar(value, name, &parsed.options.run_budget_ms);
        if (parsed.options.run_budget_ms < 0) {
          throw JsonError("run_budget_ms must be >= 0");
        }
      } else if (name == "fail_limit") {
        read_scalar(value, name, &parsed.options.fail_limit);
      } else {
        throw JsonError("unknown member \"" + name +
                        "\" in grid request options");
      }
    }
  }
  // The operator's cap wins over whatever the request asked for; a request
  // of 0 ("unlimited") under a configured cap becomes the cap.
  if (options_.max_run_budget_ms > 0 &&
      (parsed.options.run_budget_ms <= 0 ||
       parsed.options.run_budget_ms > options_.max_run_budget_ms)) {
    parsed.options.run_budget_ms = options_.max_run_budget_ms;
  }

  const Json& runs = request.at("runs");
  if (!runs.is_array() || runs.size() == 0) {
    throw JsonError("\"runs\" must be a non-empty array");
  }
  parsed.specs.reserve(runs.size());
  for (const Json& spec_json : runs.items()) {
    if (!spec_json.is_object()) {
      throw JsonError("member \"runs[" + std::to_string(parsed.specs.size()) +
                      "]\" must be an object");
    }
    RunSpec spec = run_spec_from_json(spec_json);
    if (find_workload(spec.workload) == nullptr) {
      throw JsonError("unknown workload \"" + spec.workload + "\"");
    }
    parsed.specs.push_back(std::move(spec));
  }
  return parsed;
}

ExperimentGrid SimService::make_grid(const std::vector<RunSpec>& specs) {
  ExperimentGrid grid;
  // Everything find_workload() can name — the paper suite, the extended
  // one, and the compiled-kernel set — so parse-time validation and grid
  // registration agree exactly.
  grid.add_workloads(all_workloads());
  grid.add_workloads(extended_workloads());
  grid.add_workloads(compiled_workloads());
  for (const RunSpec& spec : specs) grid.add(spec);
  return grid;
}

GridResult SimService::execute(const ExperimentGrid& grid,
                               const ParsedRequest& parsed,
                               obs::TraceContext trace) {
  GridOptions options = parsed.options;
  // The service's shared long-lived tiers, not per-grid ones.
  options.cache = &cache_;
  options.metrics = &metrics_;
  options.journal = &journal_;
  options.trace = trace;
  options.cache_dir.clear();
  return grid.run(options);
}

Json SimService::run_local(const Json& request) {
  const ParsedRequest parsed = parse_request(request);
  // A --local run is its own trace, rooted like a job's but without the
  // queue bookkeeping.
  return execute(make_grid(parsed.specs), parsed,
                 obs::TraceContext{journal_.new_id(), 0})
      .to_json();
}

ResultCache::JanitorReport SimService::sweep_now(double min_age_seconds) {
  return cache_.janitor_sweep(min_age_seconds);
}

std::uint64_t SimService::start_locked(std::uint64_t id) {
  Job& job = jobs_[id];
  job.state = JobState::kRunning;
  return job.trace_id;
}

void SimService::lane_main() {
  for (;;) {
    PendingJob job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      lane_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;  // unstarted jobs die with us
      job = std::move(queue_.front());
      queue_.pop_front();
      lane_checking_ = true;
    }
    // A job the check cannot settle (a duplicate spec, say) goes to the
    // runner too, whose job path records the failure.
    std::optional<ExperimentGrid> grid;
    bool cached = false;
    try {
      grid.emplace(make_grid(job.parsed.specs));
      cached = grid->memory_resident(cache_, job.parsed.options);
    } catch (...) {
    }
    std::uint64_t trace_id = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      lane_checking_ = false;
      if (cached) {
        trace_id = start_locked(job.id);
      } else {
        sim_queue_.push_back(std::move(job));
      }
    }
    if (!cached) {
      runner_cv_.notify_one();
      continue;
    }
    metrics_.counter("serve.lane_jobs")->add();
    run_job(job, trace_id, &*grid);
  }
}

void SimService::runner_main() {
  for (;;) {
    PendingJob job;
    std::uint64_t trace_id = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      runner_cv_.wait(lock, [&] { return stopping_ || !sim_queue_.empty(); });
      if (stopping_) return;  // unstarted jobs die with us
      job = std::move(sim_queue_.front());
      sim_queue_.pop_front();
      trace_id = start_locked(job.id);
    }
    run_job(job, trace_id, nullptr);
  }
}

void SimService::run_job(const PendingJob& job, std::uint64_t trace_id,
                         const ExperimentGrid* grid) {
  Job finished;
  finished.state = JobState::kFailed;
  {
    // The job's one record of when it started and ended: /v1/trace and
    // the event stream both read this span.
    Json attrs = Json::object();
    attrs["job"] = Json(job.id);
    attrs["runs"] = Json(job.parsed.specs.size());
    obs::Journal::SpanScope job_span(&journal_,
                                     obs::TraceContext{trace_id, 0}, "job",
                                     std::move(attrs));
    if (test_run_hook) test_run_hook();
    try {
      const GridResult result =
          grid != nullptr
              ? execute(*grid, job.parsed, job_span.context())
              : execute(make_grid(job.parsed.specs), job.parsed,
                        job_span.context());
      finished.state = JobState::kDone;
      finished.wall_ms = result.engine().wall_ms;
      finished.summary = result.engine_summary();
      finished.results = render_body(result.to_json());
      finished.cache_delta = result.engine().cache;
    } catch (const std::exception& e) {
      finished.error = e.what();
    } catch (...) {
      finished.error = "non-standard exception";
    }
    Json end_attrs = Json::object();
    end_attrs["state"] = Json(job_state_name(finished.state));
    job_span.set_end_attrs(std::move(end_attrs));
  }
  metrics_
      .counter(finished.state == JobState::kDone ? "serve.jobs_completed"
                                                 : "serve.jobs_failed")
      ->add();
  std::lock_guard<std::mutex> lock(mu_);
  Job& entry = jobs_[job.id];
  entry.state = finished.state;
  entry.wall_ms = finished.wall_ms;
  entry.summary = std::move(finished.summary);
  entry.error = std::move(finished.error);
  entry.results = std::move(finished.results);
  entry.cache_delta = finished.cache_delta;
  // Dropped under the same lock, so no poll sees a half-dropped job.
  finished_.push_back(job.id);
  if (finished_.size() > options_.max_retained_jobs) {
    jobs_.erase(finished_.front());
    finished_.pop_front();
    metrics_.counter("serve.jobs_evicted")->add();
  }
}

Json SimService::job_status_json(const Job& job) const {
  Json j = Json::object();
  j["job"] = Json(job.id);
  j["state"] = Json(job_state_name(job.state));
  j["runs"] = Json(job.runs);
  j["trace"] = Json(to_hex(job.trace_id));
  if (job.state == JobState::kDone) {
    j["wall_ms"] = Json(job.wall_ms);
    j["summary"] = Json(job.summary);
  }
  if (job.state == JobState::kFailed) j["error"] = Json(job.error);
  return j;
}

HttpResponse SimService::missing_job(std::uint64_t id) const {
  if (id == 0 || id >= next_job_id_) return error_json(404, "unknown job");
  Json body = Json::object();
  body["error"] = Json("job " + std::to_string(id) +
                       " is gone: only the newest " +
                       std::to_string(options_.max_retained_jobs) +
                       " finished jobs are kept");
  body["max_retained_jobs"] = Json(options_.max_retained_jobs);
  return json_response(410, body);
}

HttpResponse SimService::handle_submit(const HttpRequest& request) {
  Json body;
  ParsedRequest parsed;
  try {
    body = Json::parse(request.body);
    parsed = parse_request(body);
  } catch (const JsonError& e) {
    metrics_.counter("serve.jobs_rejected")->add();
    return error_json(400, e.what());
  }

  const std::uint64_t trace_id = journal_.new_id();
  // The ack snapshot is taken inside the same critical section that
  // enqueues the job: once mu_ is released the lane may pick the job up
  // at any moment, and the 202 body must still say "queued". For the same
  // reason job.submitted is journaled before the job is queued, so it
  // always precedes the job's "job" span. (Lock order is mu_ then the
  // journal's mutex; nothing takes them the other way round.)
  Json ack;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::size_t unstarted =
        queue_.size() + (lane_checking_ ? 1 : 0) + sim_queue_.size();
    if (unstarted >= options_.queue_limit) {
      metrics_.counter("serve.jobs_rejected")->add();
      Json reject = Json::object();
      reject["error"] = Json("job queue full");
      reject["queued"] = Json(unstarted);
      reject["queue_limit"] = Json(options_.queue_limit);
      return json_response(429, reject);
    }
    const std::uint64_t id = next_job_id_++;
    Json attrs = Json::object();
    attrs["job"] = Json(id);
    attrs["runs"] = Json(parsed.specs.size());
    journal_.instant(obs::TraceContext{trace_id, 0}, "job.submitted",
                     std::move(attrs));
    Job& job = jobs_[id];
    job.id = id;
    job.runs = parsed.specs.size();
    job.trace_id = trace_id;
    queue_.push_back(PendingJob{id, std::move(parsed)});
    ack = job_status_json(job);
  }
  metrics_.counter("serve.jobs_submitted")->add();
  lane_cv_.notify_one();
  return json_response(202, ack);
}

HttpResponse SimService::handle_job_list() const {
  Json jobs = Json::array();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& entry : jobs_) {
      jobs.push_back(job_status_json(entry.second));
    }
  }
  Json body = Json::object();
  body["jobs"] = std::move(jobs);
  return json_response(200, body);
}

HttpResponse SimService::handle_job_status(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return missing_job(id);
  return json_response(200, job_status_json(it->second));
}

HttpResponse SimService::handle_job_results(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return missing_job(id);
  const Job& job = it->second;
  switch (job.state) {
    case JobState::kQueued:
    case JobState::kRunning:
      // Not an error: the job exists, the results just aren't ready.
      return json_response(202, job_status_json(job));
    case JobState::kFailed:
      return json_response(500, job_status_json(job));
    case JobState::kDone: {
      HttpResponse r;
      r.body = job.results;
      return r;
    }
  }
  return error_json(500, "unreachable job state");
}

HttpResponse SimService::handle_job_summary(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return missing_job(id);
  const Job& job = it->second;
  if (job.state == JobState::kQueued || job.state == JobState::kRunning) {
    // The deltas only exist once the grid has run; same contract as
    // /results — 202 with the status document while pending.
    return json_response(202, job_status_json(job));
  }
  Json body = job_status_json(job);
  // This job's own traffic on the shared cache, as its grid counted it:
  // how much it hit, missed, stored, and evicted — attribution the global
  // /metrics counters cannot give.
  Json cache = Json::object();
  const ResultCache::Counters& d = job.cache_delta;
  cache["memory_hits"] = Json(d.memory_hits);
  cache["disk_hits"] = Json(d.disk_hits);
  cache["misses"] = Json(d.misses);
  cache["stores"] = Json(d.stores);
  cache["disk_errors"] = Json(d.disk_errors);
  cache["quarantined"] = Json(d.quarantined);
  cache["quarantine_removed"] = Json(d.quarantine_removed);
  cache["evicted"] = Json(d.evicted);
  cache["size_evicted"] = Json(d.size_evicted);
  body["cache"] = std::move(cache);
  return json_response(200, body);
}

HttpResponse SimService::handle_job_events(std::uint64_t id) {
  std::uint64_t trace_id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return missing_job(id);
    trace_id = it->second.trace_id;
  }
  const auto job_finished = [this, id] {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = jobs_.find(id);
    return it == jobs_.end() || it->second.state == JobState::kDone ||
           it->second.state == JobState::kFailed;
  };
  HttpResponse r;
  r.content_type = "application/x-ndjson";
  // Chunked NDJSON: one journal event per line, as they happen. Idle
  // periods emit {"heartbeat":true} lines (~2/s) so a vanished client is
  // detected by the failing write instead of pinning the handler thread.
  // The stream ends once the job has finished and the ring is drained.
  r.streamer = [this, trace_id, job_finished](const ChunkWriter& write) {
    std::uint64_t after = 0;
    for (;;) {
      // Order matters: check finished *before* polling, so events landing
      // between the poll and the check are picked up next iteration
      // rather than lost.
      const bool finished = job_finished();
      const std::vector<obs::JournalEvent> events =
          journal_.poll(after, trace_id, std::chrono::milliseconds(500));
      if (events.empty()) {
        if (finished) return;
        if (!write("{\"heartbeat\":true}\n")) return;
        continue;
      }
      for (const obs::JournalEvent& event : events) {
        after = event.seq;
        if (!write(obs::journal_event_line(event) + "\n")) return;
      }
    }
  };
  return r;
}

HttpResponse SimService::handle_summary() const {
  std::string lines;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& entry : jobs_) {
      const Job& job = entry.second;
      lines += "job ";
      lines += std::to_string(job.id);
      lines += ": ";
      if (job.state == JobState::kDone) {
        lines += job.summary;
      } else if (job.state == JobState::kFailed) {
        lines += "failed: ";
        lines += job.error;
      } else {
        lines += job_state_name(job.state);
      }
      lines += '\n';
    }
  }
  HttpResponse r;
  r.content_type = "text/plain";
  r.body = std::move(lines);
  return r;
}

HttpResponse SimService::handle_metrics(const HttpRequest& request) const {
  const ResultCache::Counters c = cache_.counters();
  // Content negotiation: a scraper that asks for text/plain gets the
  // Prometheus exposition; everyone else (no Accept, */*, JSON clients)
  // keeps the JSON document, byte-identical to what it always was.
  const std::string_view accept = request.header("accept");
  if (accept.find("text/plain") != std::string_view::npos) {
    std::vector<obs::PrometheusGauge> gauges;
    const auto cache_gauge = [&gauges](const char* kind, double value) {
      gauges.push_back({std::string("serve.cache|counter=") + kind, value});
    };
    cache_gauge("memory_hits", static_cast<double>(c.memory_hits));
    cache_gauge("disk_hits", static_cast<double>(c.disk_hits));
    cache_gauge("misses", static_cast<double>(c.misses));
    cache_gauge("stores", static_cast<double>(c.stores));
    cache_gauge("disk_errors", static_cast<double>(c.disk_errors));
    cache_gauge("quarantined", static_cast<double>(c.quarantined));
    cache_gauge("quarantine_removed",
                static_cast<double>(c.quarantine_removed));
    cache_gauge("evicted", static_cast<double>(c.evicted));
    cache_gauge("size_evicted", static_cast<double>(c.size_evicted));
    gauges.push_back({"serve.cache_disk_usage_bytes",
                      static_cast<double>(cache_.disk_usage_bytes())});
    gauges.push_back({"serve.cache_size_budget_bytes",
                      static_cast<double>(cache_.size_budget_bytes())});
    gauges.push_back({"serve.journal_events",
                      static_cast<double>(journal_.events_appended())});
    gauges.push_back({"serve.journal_disk_errors",
                      static_cast<double>(journal_.disk_errors())});
    HttpResponse r;
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = obs::render_prometheus(metrics_, gauges);
    return r;
  }
  Json body = Json::object();
  body["metrics"] = metrics_.to_json();
  Json cache = Json::object();
  cache["memory_hits"] = Json(c.memory_hits);
  cache["disk_hits"] = Json(c.disk_hits);
  cache["misses"] = Json(c.misses);
  cache["stores"] = Json(c.stores);
  cache["disk_errors"] = Json(c.disk_errors);
  cache["quarantined"] = Json(c.quarantined);
  cache["quarantine_removed"] = Json(c.quarantine_removed);
  cache["evicted"] = Json(c.evicted);
  cache["size_evicted"] = Json(c.size_evicted);
  cache["disk_usage_bytes"] = Json(cache_.disk_usage_bytes());
  cache["size_budget_bytes"] = Json(cache_.size_budget_bytes());
  body["cache"] = std::move(cache);
  return json_response(200, body);
}

HttpResponse SimService::handle_trace() {
  // The journal ring is the only source, so the document covers recent
  // jobs only. A job whose early events have left the ring loses the
  // slices they began: nothing renders an end without its begin.
  std::set<std::uint64_t> queued;                  // traces
  std::map<std::uint64_t, std::uint64_t> running;  // trace -> job
  Json events = Json::array();
  events.push_back(track_name_event("process_name", 0, "t1000-serve"));
  Json timeline = Json::array();
  for (const obs::JournalEvent& ev :
       journal_.poll(0, 0, std::chrono::milliseconds(0))) {
    if (ev.name == "job.submitted") {
      const std::uint64_t job = ev.attrs.at("job").as_uint();
      events.push_back(track_name_event("thread_name", job,
                                        "job " + std::to_string(job)));
      timeline.push_back(trace_event("queued", 'B', ev.ts_ms, job));
      // Opens the request's flow; the job span's begin closes it.
      timeline.push_back(trace_event("job", 's', ev.ts_ms, job, ev.trace_id));
      queued.insert(ev.trace_id);
    } else if (ev.name == "job" && ev.kind == 'B') {
      const std::uint64_t job = ev.attrs.at("job").as_uint();
      const bool was_queued = queued.erase(ev.trace_id) > 0;
      if (was_queued) {
        timeline.push_back(trace_event("", 'E', ev.ts_ms, job));
      } else {
        events.push_back(track_name_event("thread_name", job,
                                          "job " + std::to_string(job)));
      }
      timeline.push_back(trace_event("run", 'B', ev.ts_ms, job));
      if (was_queued) {
        timeline.push_back(
            trace_event("job", 'f', ev.ts_ms, job, ev.trace_id));
      }
      running[ev.trace_id] = job;
    } else if (ev.name == "job" && ev.kind == 'E') {
      const auto it = running.find(ev.trace_id);
      if (it == running.end()) continue;
      timeline.push_back(trace_event("", 'E', ev.ts_ms, it->second));
      running.erase(it);
    }
  }
  for (const Json& ev : timeline.items()) events.push_back(ev);
  Json doc = Json::object();
  doc["traceEvents"] = std::move(events);
  return json_response(200, doc);
}

HttpResponse SimService::handle_janitor() {
  // TTL 0: an explicit janitor request means "sweep everything now"; the
  // periodic sweeps the tool schedules use its --janitor-ttl-s.
  const ResultCache::JanitorReport report = sweep_now(0.0);
  Json body = Json::object();
  body["tmp_removed"] = Json(report.tmp_removed);
  body["corrupt_removed"] = Json(report.corrupt_removed);
  return json_response(200, body);
}

HttpResponse SimService::handle_shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_requested_ = true;
  }
  Json body = Json::object();
  body["state"] = Json("shutting down");
  return json_response(200, body);
}

HttpResponse SimService::route_request(const HttpRequest& request,
                                       const std::string& path,
                                       std::string* route_label) {
  const bool get = request.method == "GET";
  const bool post = request.method == "POST";

  if (path == "/healthz") {
    if (!get) return error_json(405, "use GET");
    Json body = Json::object();
    body["status"] = Json("ok");
    body["api"] = Json("v1");
    return json_response(200, body);
  }
  if (path == "/metrics") {
    if (!get) return error_json(405, "use GET");
    return handle_metrics(request);
  }
  if (path == "/v1/jobs") {
    if (post) return handle_submit(request);
    if (get) return handle_job_list();
    return error_json(405, "use GET or POST");
  }
  if (path.rfind("/v1/jobs/", 0) == 0) {
    if (!get) return error_json(405, "use GET");
    std::string_view rest = std::string_view(path).substr(9);
    // Sub-resource suffix, stripped from the id segment. The route label
    // keeps the template, never the raw id — per-route histogram
    // cardinality stays bounded by the API surface.
    std::string_view suffix;
    for (const std::string_view candidate : {"/results", "/summary",
                                             "/events"}) {
      if (rest.size() > candidate.size() &&
          rest.substr(rest.size() - candidate.size()) == candidate) {
        suffix = candidate;
        rest = rest.substr(0, rest.size() - candidate.size());
        break;
      }
    }
    *route_label = "/v1/jobs/<id>" + std::string(suffix);
    std::uint64_t id = 0;
    if (!parse_job_id(rest, &id)) return error_json(404, "unknown job");
    if (suffix == "/results") return handle_job_results(id);
    if (suffix == "/summary") return handle_job_summary(id);
    if (suffix == "/events") return handle_job_events(id);
    return handle_job_status(id);
  }
  if (path == "/v1/summary") {
    if (!get) return error_json(405, "use GET");
    return handle_summary();
  }
  if (path == "/v1/trace") {
    if (!get) return error_json(405, "use GET");
    return handle_trace();
  }
  if (path == "/v1/janitor") {
    if (!post) return error_json(405, "use POST");
    return handle_janitor();
  }
  if (path == "/v1/shutdown") {
    if (!post) return error_json(405, "use POST");
    return handle_shutdown();
  }
  *route_label = "other";
  return error_json(404, "no such route");
}

HttpResponse SimService::handle_http(const HttpRequest& request) {
  metrics_.counter("serve.requests")->add();
  const auto start = std::chrono::steady_clock::now();

  // Strip any query string; the API is path-routed only.
  std::string path = request.target;
  if (const std::size_t q = path.find('?'); q != std::string::npos) {
    path.resize(q);
  }

  std::string route_label = path;
  HttpResponse response = route_request(request, path, &route_label);

  // Per-route latency histogram, labeled "<METHOD> <route template>".
  // Both label parts are bounded: the template come from route_request
  // (raw ids never leak into it) and unknown methods collapse to OTHER.
  const std::string method = request.method == "GET"    ? "GET"
                             : request.method == "POST" ? "POST"
                                                        : "OTHER";
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  metrics_
      .histogram("serve.route_ms|route=" + method + " " + route_label,
                 {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000,
                  10000})
      ->observe(static_cast<std::uint64_t>(ms));
  return response;
}

}  // namespace t1000::serve
