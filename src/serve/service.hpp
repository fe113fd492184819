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
// Jobs run on two threads. The cache lane takes every submitted job in
// submission order and checks, without counting, whether the cache's
// memory tier already holds every run of it. Such a cache-resident job it
// runs itself, so it never waits behind a simulation; every other job it
// hands to the runner thread, which runs them one at a time, in
// submission order — the grid inside a job already parallelizes across
// `jobs` workers. So jobs that need simulation keep their order, while a
// cache-resident job may finish before jobs submitted ahead of it. Both
// threads run a job through the same path: the "job" span,
// test_run_hook, the grid, and retention. Each job's cache deltas are
// its own grid's count, exact even while the two threads' grids share the
// cache. Shutdown joins both threads.
//
// Admission control is a bounded queue: submissions beyond `queue_limit`
// unstarted jobs — waiting for the lane, being checked by it, or waiting
// for the runner — are rejected with 429 and a status body, never
// silently dropped or unboundedly buffered. Retention is bounded too: once
// more than `max_retained_jobs` jobs have finished, each newly finished
// job drops the oldest finished one (counted by serve.jobs_evicted);
// queued and running jobs are never dropped. serve.lane_jobs counts the
// jobs the lane ran.
//
// API (all bodies JSON unless noted; every /v1/jobs/<id> route answers 404
// for an id never issued and 410, naming the cap, for a dropped one):
//   GET  /healthz                 liveness + version of the API surface
//   POST /v1/jobs                 submit a grid request -> 202 {job, state}
//   GET  /v1/jobs                 list the retained jobs with states
//   GET  /v1/jobs/<id>            one job's status document
//   GET  /v1/jobs/<id>/results    full results doc (202 + status while
//                                 pending)
//   GET  /v1/jobs/<id>/summary    status + this job's cache-counter deltas
//                                 (hits/misses/evictions its grid counted
//                                 for its own lookups and stores)
//   GET  /v1/jobs/<id>/events     chunked NDJSON stream of the job's
//                                 journal events (trace spans, cache ops,
//                                 experiment phases) as they happen;
//                                 idle-heartbeat lines {"heartbeat":true};
//                                 ends when the job finishes and drains
//   GET  /v1/summary              text/plain engine-summary line per
//                                 retained job
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
// submission. The thread that runs the job wraps its grid in a "job" span
// and threads the context into the grid via GridOptions.trace/journal, so
// the grid's run/batch/cache events and the experiment's phase spans all
// land in the job's trace — streamable live at /v1/jobs/<id>/events and,
// when the daemon was started with --journal-out, on disk as JSONL.
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
  // Finished jobs kept for polling; beyond this the oldest is dropped and
  // its id answers 410.
  std::size_t max_retained_jobs = 1024;
  // On-disk JSONL event journal (--journal-out); empty = in-memory ring
  // only, which still powers the /v1/jobs/<id>/events stream.
  std::string journal_path;
  std::uint64_t journal_max_bytes = 64ull << 20;
};

class SimService {
 public:
  explicit SimService(ServiceOptions options);
  ~SimService();  // drains the running jobs, discards the queues

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

  // Test-only: runs on whichever thread runs a job — the runner, or the
  // lane for a cache-resident job — after the job is marked running and
  // its "job" span begun, before its grid executes. Lets the tests hold a
  // thread mid-job deterministically.
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
    // The /results 200 body once done, rendered by the runner before it
    // takes mu_: a rendered document is a fraction of its Json tree's
    // size, and serving it is a string copy under the lock.
    std::string results;
    // This job's traffic on the shared cache, as its grid counted it
    // (EngineStats::cache), filled once the job finishes; exported at
    // /v1/jobs/<id>/summary.
    ResultCache::Counters cache_delta;
  };

  struct ParsedRequest {
    std::vector<RunSpec> specs;
    GridOptions options;  // budgets/flags only; cache/metrics wired later
  };

  // A submitted job that has not started. Kept apart from Job so the
  // (copied) status documents stay small.
  struct PendingJob {
    std::uint64_t id = 0;
    ParsedRequest parsed;
  };

  // Throws JsonError with a client-appropriate message on any problem.
  ParsedRequest parse_request(const Json& request) const;
  // The grid a request names, over every workload find_workload() knows.
  static ExperimentGrid make_grid(const std::vector<RunSpec>& specs);
  GridResult execute(const ExperimentGrid& grid, const ParsedRequest& parsed,
                     obs::TraceContext trace);
  // The one job path of both threads: the "job" span, test_run_hook, the
  // grid, and retention. The caller has marked the job running. `grid` is
  // the job's grid when the caller built it already (the lane runs the
  // grid it checked, with the program hashes the check computed); null
  // builds it here.
  void run_job(const PendingJob& job, std::uint64_t trace_id,
               const ExperimentGrid* grid);

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
  // The answer for an id jobs_ does not hold: 410 if the retention cap
  // dropped it, 404 if it was never issued. Called under mu_.
  HttpResponse missing_job(std::uint64_t id) const;

  void lane_main();
  void runner_main();
  // Marks a job running and returns its trace id. Called under mu_, in
  // the critical section that takes the job off the unstarted count.
  std::uint64_t start_locked(std::uint64_t id);

  ServiceOptions options_;
  ResultCache cache_;
  obs::MetricsRegistry metrics_;
  obs::Journal journal_;

  mutable std::mutex mu_;
  std::condition_variable lane_cv_;    // queue_ grew, or stopping_
  std::condition_variable runner_cv_;  // sim_queue_ grew, or stopping_
  std::map<std::uint64_t, Job> jobs_;
  // Unstarted jobs: submitted and waiting for the lane, the one the lane
  // is checking, and those it passed on to wait for the runner.
  std::deque<PendingJob> queue_;
  bool lane_checking_ = false;
  std::deque<PendingJob> sim_queue_;
  // Finished job ids, oldest first; at most max_retained_jobs.
  std::deque<std::uint64_t> finished_;
  std::uint64_t next_job_id_ = 1;
  bool stopping_ = false;
  bool shutdown_requested_ = false;

  std::thread lane_;
  std::thread runner_;
};

}  // namespace t1000::serve
