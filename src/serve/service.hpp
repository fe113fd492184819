// SimService: the t1000-serve daemon's core, separated from the HTTP
// transport so tests can drive the whole API through handle_http() without
// opening a socket.
//
// The service owns the long-lived state a daemon accumulates across
// requests and a CLI process never needs:
//
//  * one shared ResultCache (in-memory tier stays hot across grids; the
//    on-disk tier carries the size budget and is safe to share with
//    concurrent CLI tools, see harness/cache.hpp),
//  * one MetricsRegistry observing both the serve layer ("serve.*") and
//    every grid it runs ("grid.*"), exported verbatim at GET /metrics, and
//  * one obs::Journal, the only record of when a job was submitted,
//    started and ended (plus every span its grid emits): the NDJSON event
//    stream and the Perfetto timeline at GET /v1/trace are both views of
//    its in-memory ring (8192 events), so they cover recent jobs only.
//
// Jobs run on a single runner thread, strictly in submission order — the
// grid inside a job already parallelizes across `jobs` workers, and serial
// job execution is what makes the shared cache's per-grid counter deltas
// attributable. Admission control is a bounded queue: submissions beyond
// `queue_limit` queued-but-unstarted jobs are rejected with 429 and a
// status body, never silently dropped or unboundedly buffered.
//
// API (all bodies JSON unless noted):
//   GET  /healthz                 liveness + version of the API surface
//   POST /v1/jobs                 submit a grid request -> 202 {job, state}
//   GET  /v1/jobs                 list all jobs with states
//   GET  /v1/jobs/<id>            one job's status document
//   GET  /v1/jobs/<id>/results    full results doc (202 + status while
//                                 pending, 404 unknown)
//   GET  /v1/jobs/<id>/summary    status + this job's cache-counter deltas
//                                 (hits/misses/evictions attributed to the
//                                 job via Counters::since)
//   GET  /v1/jobs/<id>/events     chunked NDJSON stream of the job's
//                                 journal events (trace spans, cache ops,
//                                 experiment phases) as they happen;
//                                 idle-heartbeat lines {"heartbeat":true};
//                                 ends when the job finishes and drains
//   GET  /v1/summary              text/plain engine-summary line per done job
//   GET  /metrics                 metrics registry + cache/disk gauges;
//                                 content-negotiated — Accept: text/plain
//                                 renders Prometheus text exposition
//                                 (version 0.0.4), default stays the JSON
//                                 document, byte-identical to before
//   GET  /v1/trace                Perfetto traceEvents for the recent job
//                                 timeline, drawn from the journal ring:
//                                 per job, a "queued" slice (job.submitted
//                                 to the job span's begin), a "run" slice
//                                 over the job span, and one s/f flow pair
//                                 whose id is the trace; ts in µs
//   POST /v1/janitor              sweep cache debris now -> report
//   POST /v1/shutdown             request daemon exit (polled by the tool)
//
// Tracing: every job gets a trace id (minted from the journal) at
// submission. The runner wraps the job's grid in a "job" span and threads
// the context into the grid via GridOptions.trace/journal, so the grid's
// run/batch/cache events and the experiment's phase spans all land in the
// job's trace — streamable live at /v1/jobs/<id>/events and, when the
// daemon was started with --journal-out, on disk as JSONL.
//
// A grid request is:
//   {"runs": [<RunSpec JSON, as serialized by to_json(RunSpec)>...],
//    "options": {"verify": b, "observe": b, "batch": b,
//                "run_budget_ms": ms, "fail_limit": n}}
// Every member of "options" is optional; unknown members anywhere are a
// 400, and per-request budgets are clamped to the service's configured
// maximum so one client cannot opt out of the operator's limits.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "harness/cache.hpp"
#include "harness/grid.hpp"
#include "harness/json.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "serve/http.hpp"

namespace t1000::serve {

enum class JobState { kQueued, kRunning, kDone, kFailed };
std::string_view job_state_name(JobState state);

struct ServiceOptions {
  int jobs = 0;           // grid worker threads per job; 0 = hardware
  std::string cache_dir;  // shared on-disk cache; empty = in-memory only
  std::uint64_t cache_budget_bytes = 0;  // 0 = unbounded
  // Default per-run wall-clock budget applied when a request names none,
  // and the cap a request's own run_budget_ms is clamped to (0 = no
  // default / no cap respectively).
  double default_run_budget_ms = 0.0;
  double max_run_budget_ms = 0.0;
  std::uint64_t fail_limit = 0;  // default per-job circuit breaker
  // Queued-but-unstarted jobs beyond this are rejected with 429.
  std::size_t queue_limit = 8;
  // On-disk JSONL event journal (--journal-out); empty = in-memory ring
  // only, which still powers the /v1/jobs/<id>/events stream.
  std::string journal_path;
  std::uint64_t journal_max_bytes = 64ull << 20;
};

class SimService {
 public:
  explicit SimService(ServiceOptions options);
  ~SimService();  // drains the current job, discards the queue

  SimService(const SimService&) = delete;
  SimService& operator=(const SimService&) = delete;

  // Routes one API request; thread-safe (called from the HTTP handler
  // pool). Unknown routes are 404, wrong methods 405.
  HttpResponse handle_http(const HttpRequest& request);

  // Runs a grid request synchronously in-process — same parser, same
  // GridOptions assembly, same shared cache/metrics as a submitted job,
  // but no queue and no job bookkeeping. Powers `t1000-serve --local` and
  // the byte-identity checks. Throws JsonError on a malformed request.
  Json run_local(const Json& request);

  // Sweeps cache debris older than `min_age_seconds` (POST /v1/janitor
  // uses the same entry point).
  ResultCache::JanitorReport sweep_now(double min_age_seconds);

  // Set once POST /v1/shutdown is accepted; the hosting tool polls it.
  bool shutdown_requested() const;

  ResultCache& cache() { return cache_; }
  obs::MetricsRegistry& metrics() { return metrics_; }
  obs::Journal& journal() { return journal_; }

  // Test-only: runs on the runner thread after a job is dequeued, marked
  // running and its "job" span begun, before its grid executes. Lets the
  // admission tests hold the runner mid-job deterministically.
  std::function<void()> test_run_hook;

 private:
  struct Job {
    std::uint64_t id = 0;
    JobState state = JobState::kQueued;
    std::size_t runs = 0;
    std::uint64_t trace_id = 0;  // journal trace (minted at submission)
    double wall_ms = 0.0;   // grid wall-clock once done
    std::string summary;    // engine summary once done
    std::string error;      // diagnostic once failed
    Json results;           // full results document once done
    // The shared cache's counter movement attributed to this job
    // (Counters::since over snapshots around the grid), filled once the
    // job finishes; exported at /v1/jobs/<id>/summary.
    ResultCache::Counters cache_delta;
  };

  struct ParsedRequest {
    std::vector<RunSpec> specs;
    GridOptions options;  // budgets/flags only; cache/metrics wired later
  };

  // Throws JsonError with a client-appropriate message on any problem.
  ParsedRequest parse_request(const Json& request) const;
  GridResult execute(const ParsedRequest& parsed, obs::TraceContext trace);

  // The routing body behind handle_http; `route_label` gets the bounded
  // route template ("GET /v1/jobs/<id>", never a raw path) the per-route
  // latency histogram is keyed by.
  HttpResponse route_request(const HttpRequest& request,
                             const std::string& path,
                             std::string* route_label);

  HttpResponse handle_submit(const HttpRequest& request);
  HttpResponse handle_job_list() const;
  HttpResponse handle_job_status(std::uint64_t id) const;
  HttpResponse handle_job_results(std::uint64_t id) const;
  HttpResponse handle_job_summary(std::uint64_t id) const;
  HttpResponse handle_job_events(std::uint64_t id);
  HttpResponse handle_summary() const;
  HttpResponse handle_metrics(const HttpRequest& request) const;
  HttpResponse handle_trace();
  HttpResponse handle_janitor();
  HttpResponse handle_shutdown();

  Json job_status_json(const Job& job) const;

  void runner_main();

  ServiceOptions options_;
  ResultCache cache_;
  obs::MetricsRegistry metrics_;
  obs::Journal journal_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::uint64_t, Job> jobs_;
  std::deque<std::uint64_t> queue_;  // submitted, not yet started
  // Requests parsed at submission, consumed by the runner. Kept apart
  // from Job so the (copied) status documents stay small.
  std::map<std::uint64_t, ParsedRequest> parsed_;
  std::uint64_t next_job_id_ = 1;
  bool stopping_ = false;
  bool shutdown_requested_ = false;

  std::thread runner_;
};

}  // namespace t1000::serve
