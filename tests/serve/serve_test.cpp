// Tests for the t1000-serve layer: SimService's API surface driven
// directly through handle_http (no socket), plus the HttpServer transport
// exercised over real loopback connections.
//
// The load-bearing claims, in order: a grid submitted to the service
// yields results byte-identical to the same grid run through the
// in-process engine; admission is a bounded queue that rejects with 429
// rather than buffering without bound; per-request budgets ride the grid's
// timeout taxonomy and are clamped by the operator's cap; /v1/trace is
// drawn from the journal ring alone, where a job's submission always
// precedes its span; a cache-resident job finishes on the cache lane while
// the runner simulates; only the newest finished jobs are kept, and a
// dropped one answers 410; and the HTTP layer speaks enough HTTP/1.1 for
// curl and the CI smoke job.
#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/grid.hpp"
#include "harness/serialize.hpp"
#include "serve/http.hpp"
#include "workloads/workload.hpp"

namespace t1000::serve {
namespace {

// Small two-workload request shared by most tests.
Json small_request() {
  Json runs = Json::array();
  runs.push_back(to_json(baseline_spec("gsm_dec")));
  runs.push_back(to_json(greedy_spec("gsm_dec", "greedy", 2, 10)));
  runs.push_back(to_json(baseline_spec("g721_dec")));
  Json request = Json::object();
  request["runs"] = std::move(runs);
  return request;
}

HttpRequest post(std::string target, std::string body) {
  HttpRequest r;
  r.method = "POST";
  r.target = std::move(target);
  r.body = std::move(body);
  return r;
}

HttpRequest get(std::string target) {
  HttpRequest r;
  r.method = "GET";
  r.target = std::move(target);
  return r;
}

// Polls a job until it leaves queued/running; fails the test on timeout.
Json wait_for_job(SimService& service, std::uint64_t id) {
  for (int i = 0; i < 600; ++i) {
    const HttpResponse r =
        service.handle_http(get("/v1/jobs/" + std::to_string(id)));
    EXPECT_EQ(r.status, 200);
    Json status = Json::parse(r.body);
    const std::string& state = status.at("state").as_string();
    if (state != "queued" && state != "running") return status;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ADD_FAILURE() << "job " << id << " never reached a terminal state";
  return Json();
}

TEST(Service, SubmittedJobMatchesInProcessGridByteForByte) {
  SimService service(ServiceOptions{});
  const Json request = small_request();

  const HttpResponse submitted =
      service.handle_http(post("/v1/jobs", request.dump()));
  ASSERT_EQ(submitted.status, 202);
  const Json ack = Json::parse(submitted.body);
  EXPECT_EQ(ack.at("state").as_string(), "queued");
  EXPECT_EQ(ack.at("runs").as_uint(), 3u);
  const std::uint64_t id = ack.at("job").as_uint();

  const Json status = wait_for_job(service, id);
  ASSERT_EQ(status.at("state").as_string(), "done");

  const HttpResponse fetched =
      service.handle_http(get("/v1/jobs/" + std::to_string(id) + "/results"));
  ASSERT_EQ(fetched.status, 200);
  const Json doc = Json::parse(fetched.body);

  // The reference: the identical grid through the in-process engine.
  ExperimentGrid grid;
  grid.add_workload(*find_workload("gsm_dec"));
  grid.add_workload(*find_workload("g721_dec"));
  grid.add(baseline_spec("gsm_dec"));
  grid.add(greedy_spec("gsm_dec", "greedy", 2, 10));
  grid.add(baseline_spec("g721_dec"));
  const GridResult reference = grid.run(GridOptions{});

  EXPECT_EQ(doc.at("results").dump(), reference.results_json().dump());

  // run_local shares the parser and engine wiring, so it agrees too.
  const Json local = service.run_local(request);
  EXPECT_EQ(local.at("results").dump(), reference.results_json().dump());
}

TEST(Service, FinishedJobServesOneRenderedBody) {
  SimService service(ServiceOptions{});
  const Json request = small_request();
  const HttpResponse submitted =
      service.handle_http(post("/v1/jobs", request.dump()));
  ASSERT_EQ(submitted.status, 202);
  const std::uint64_t id = Json::parse(submitted.body).at("job").as_uint();
  ASSERT_EQ(wait_for_job(service, id).at("state").as_string(), "done");

  const std::string path = "/v1/jobs/" + std::to_string(id) + "/results";
  const HttpResponse first = service.handle_http(get(path));
  const HttpResponse second = service.handle_http(get(path));
  ASSERT_EQ(first.status, 200);
  EXPECT_EQ(first.content_type, "application/json");
  EXPECT_EQ(second.status, 200);
  EXPECT_EQ(first.body, second.body);
  // The stored body is exactly the API's rendering of its document.
  const Json doc = Json::parse(first.body);
  EXPECT_EQ(doc.dump(2) + "\n", first.body);

  const Json local = service.run_local(request);
  EXPECT_EQ(doc.at("results").dump(2), local.at("results").dump(2));
}

TEST(Service, AdmissionRejectsBeyondTheQueueLimitWith429) {
  ServiceOptions options;
  options.queue_limit = 1;
  SimService service(options);

  // Hold the runner mid-job so submissions pile up deterministically:
  // job 1 dequeues and blocks running, job 2 occupies the whole queue.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  service.test_run_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };

  const std::string body = small_request().dump();
  const HttpResponse first = service.handle_http(post("/v1/jobs", body));
  ASSERT_EQ(first.status, 202);
  // Wait until the runner has picked job 1 up (queue drains to empty).
  for (int i = 0; i < 200; ++i) {
    const Json status = Json::parse(
        service.handle_http(get("/v1/jobs/1")).body);
    if (status.at("state").as_string() == "running") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  const HttpResponse second = service.handle_http(post("/v1/jobs", body));
  EXPECT_EQ(second.status, 202);
  const HttpResponse third = service.handle_http(post("/v1/jobs", body));
  EXPECT_EQ(third.status, 429);
  const Json rejection = Json::parse(third.body);
  EXPECT_EQ(rejection.at("error").as_string(), "job queue full");
  EXPECT_EQ(rejection.at("queue_limit").as_uint(), 1u);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  // Everything admitted completes; the rejected job never existed.
  EXPECT_EQ(wait_for_job(service, 1).at("state").as_string(), "done");
  EXPECT_EQ(wait_for_job(service, 2).at("state").as_string(), "done");
  EXPECT_EQ(service.handle_http(get("/v1/jobs/3")).status, 404);
}

TEST(Service, PerRequestBudgetYieldsTimeoutTaxonomyInResults) {
  SimService service(ServiceOptions{});
  Json request = small_request();
  Json options = Json::object();
  // A budget no simulation can meet: every run must come back as a
  // timeout — a diagnosable status, not an error and not a hang.
  options["run_budget_ms"] = Json(0.000001);
  request["options"] = std::move(options);

  const HttpResponse submitted =
      service.handle_http(post("/v1/jobs", request.dump()));
  ASSERT_EQ(submitted.status, 202);
  const Json status = wait_for_job(service, 1);
  // Timeouts degrade the grid, they do not fail the job.
  ASSERT_EQ(status.at("state").as_string(), "done");

  const Json doc =
      Json::parse(service.handle_http(get("/v1/jobs/1/results")).body);
  for (const Json& run : doc.at("results").items()) {
    EXPECT_EQ(run.at("status").as_string(), "timeout");
    EXPECT_EQ(run.at("error").at("kind").as_string(), "none");
  }
  EXPECT_EQ(doc.at("engine").at("timeouts").as_uint(), 3u);
}

TEST(Service, OperatorCapClampsAnUnlimitedBudgetRequest) {
  ServiceOptions options;
  options.max_run_budget_ms = 0.000001;  // operator says: nothing runs long
  SimService service(options);
  Json request = small_request();
  Json opts = Json::object();
  opts["run_budget_ms"] = Json(0.0);  // client asks for unlimited
  request["options"] = std::move(opts);

  ASSERT_EQ(service.handle_http(post("/v1/jobs", request.dump())).status,
            202);
  ASSERT_EQ(wait_for_job(service, 1).at("state").as_string(), "done");
  const Json doc =
      Json::parse(service.handle_http(get("/v1/jobs/1/results")).body);
  for (const Json& run : doc.at("results").items()) {
    EXPECT_EQ(run.at("status").as_string(), "timeout");
  }
}

TEST(Service, MalformedSubmissionsAre400WithDiagnostics) {
  SimService service(ServiceOptions{});
  EXPECT_EQ(service.handle_http(post("/v1/jobs", "{not json")).status, 400);
  EXPECT_EQ(service.handle_http(post("/v1/jobs", "{}")).status, 400);
  EXPECT_EQ(
      service.handle_http(post("/v1/jobs", "{\"runs\": []}")).status, 400);

  const HttpResponse unknown_workload = service.handle_http(
      post("/v1/jobs", "{\"runs\": [{\"workload\": \"doom\"}]}"));
  EXPECT_EQ(unknown_workload.status, 400);
  EXPECT_NE(unknown_workload.body.find("doom"), std::string::npos);

  const HttpResponse typo = service.handle_http(post(
      "/v1/jobs",
      "{\"runs\": [{\"workload\": \"gsm_dec\", \"selektor\": \"greedy\"}]}"));
  EXPECT_EQ(typo.status, 400);
  EXPECT_NE(typo.body.find("selektor"), std::string::npos);

  // Nothing malformed was admitted.
  const Json list = Json::parse(service.handle_http(get("/v1/jobs")).body);
  EXPECT_EQ(list.at("jobs").size(), 0u);
}

TEST(Service, DegenerateMachinesAndDeepBodiesAre400) {
  // Each of these used to crash, hang or mislead the daemon: a zero cache
  // line or size divides by zero, a zero fetch width never drains, an RUU
  // of 2^32 + 64 wrapped to 64 entries, max_inputs 0 failed its run with
  // std::bad_array_new_length, and deep nesting overflowed the parser's
  // stack.
  SimService service(ServiceOptions{});
  const auto expect_400_naming = [&](const std::string& body,
                                     const std::string& needle) {
    const HttpResponse r = service.handle_http(post("/v1/jobs", body));
    EXPECT_EQ(r.status, 400) << body.substr(0, 80);
    EXPECT_NE(r.body.find(needle), std::string::npos) << r.body;
  };
  const auto run_on = [](const std::string& machine) {
    return "{\"runs\": [{\"workload\": \"gsm_dec\", \"machine\": " +
           machine + "}]}";
  };
  expect_400_naming(run_on("{\"dl1\": {\"line_bytes\": 0}}"),
                    "dl1.line_bytes");
  expect_400_naming(run_on("{\"dl1\": {\"size_bytes\": 0}}"), "dl1.");
  expect_400_naming(run_on("{\"fetch_width\": 0}"), "fetch_width");
  expect_400_naming(run_on("{\"ruu_size\": 2000000000}"), "ruu_size");
  expect_400_naming(run_on("{\"ruu_size\": 4294967360}"), "ruu_size");
  // Nested members are named by their path, and a number no integer field
  // holds, or a string, still names its member.
  expect_400_naming(run_on("{\"dl1\": {\"size_bytes\": 4294967296}}"),
                    "dl1.size_bytes");
  expect_400_naming(run_on("{\"ruu_size\": 1e30}"), "ruu_size");
  expect_400_naming(run_on("{\"ruu_size\": \"big\"}"), "ruu_size");
  expect_400_naming(
      "{\"runs\": [{\"workload\": \"gsm_dec\", \"selector\": \"selective\", "
      "\"policy\": {\"extract\": {\"max_inputs\": 0}}}]}",
      "max_inputs");
  expect_400_naming(std::string(100000, '['), "nesting");
  // A negative PFU count or LUT budget used to select nothing and answer
  // ok: a silent baseline.
  const auto selective_with = [](const std::string& policy) {
    return "{\"runs\": [{\"workload\": \"gsm_dec\", \"selector\": "
           "\"selective\", \"machine\": {\"pfu\": {\"count\": 2}}, "
           "\"policy\": " + policy + "}]}";
  };
  expect_400_naming(selective_with("{\"num_pfus\": -5}"), "num_pfus");
  expect_400_naming(selective_with("{\"lut_budget\": -1}"), "lut_budget");
  expect_400_naming(selective_with("{\"time_threshold\": -3}"),
                    "time_threshold");

  const Json list = Json::parse(service.handle_http(get("/v1/jobs")).body);
  EXPECT_EQ(list.at("jobs").size(), 0u);
}

TEST(Service, MistypedMembersAre400NamingThem) {
  // Each used to answer a bare "json: expected bool, have int", naming no
  // member. The daemon and --local share the parser, so both name it.
  // Runs and options that are not objects, and a request that is not one,
  // used to answer a bare "json: expected object, have int".
  SimService service(ServiceOptions{});
  const std::string run = "{\"runs\": [{\"workload\": \"gsm_dec\", ";
  const std::pair<std::string, std::string> cases[] = {
      {run + "\"verify\": 1}]}", "member \"verify\""},
      {run + "\"policy\": {\"time_threshold\": \"x\"}}]}",
       "member \"time_threshold\""},
      {run + "\"label\": 5}]}", "member \"label\""},
      {run + "\"machine\": {\"pfu\": {\"multi_cycle_ext\": \"yes\"}}}]}",
       "member \"pfu.multi_cycle_ext\""},
      {run + "\"machine\": {\"dl1\": 5}}]}", "member \"dl1\""},
      {run + "\"machine\": {\"branch\": {\"kind\": 3}}}]}",
       "member \"branch.kind\""},
      {"{\"runs\": [{\"workload\": \"gsm_dec\"}], \"options\": "
       "{\"verify\": 1}}",
       "member \"verify\""},
      {"{\"runs\": [5]}", "member \"runs[0]\" must be an object"},
      {"{\"runs\": [{\"workload\": \"gsm_dec\"}], \"options\": 5}",
       "member \"options\" must be an object"},
      {"[1]", "grid request must be an object"},
  };
  for (const auto& [body, named] : cases) {
    const HttpResponse r = service.handle_http(post("/v1/jobs", body));
    EXPECT_EQ(r.status, 400) << body;
    EXPECT_NE(Json::parse(r.body).at("error").as_string().find(named),
              std::string::npos)
        << r.body;
    try {
      service.run_local(Json::parse(body));
      ADD_FAILURE() << "--local accepted " << body;
    } catch (const JsonError& e) {
      EXPECT_NE(std::string(e.what()).find(named), std::string::npos)
          << e.what();
    }
  }
}

TEST(Service, RoutesAndMethodsAreEnforced) {
  SimService service(ServiceOptions{});
  EXPECT_EQ(service.handle_http(get("/healthz")).status, 200);
  EXPECT_EQ(service.handle_http(post("/healthz", "")).status, 405);
  EXPECT_EQ(service.handle_http(get("/v1/janitor")).status, 405);
  EXPECT_EQ(service.handle_http(get("/nope")).status, 404);
  EXPECT_EQ(service.handle_http(get("/v1/jobs/7")).status, 404);
  EXPECT_EQ(service.handle_http(get("/v1/jobs/xyz")).status, 404);
  EXPECT_EQ(service.handle_http(get("/v1/jobs/7/results")).status, 404);

  EXPECT_FALSE(service.shutdown_requested());
  EXPECT_EQ(service.handle_http(post("/v1/shutdown", "")).status, 200);
  EXPECT_TRUE(service.shutdown_requested());
}

TEST(Service, MetricsAndTraceObserveTheJobLifecycle) {
  SimService service(ServiceOptions{});
  ASSERT_EQ(
      service.handle_http(post("/v1/jobs", small_request().dump())).status,
      202);
  ASSERT_EQ(wait_for_job(service, 1).at("state").as_string(), "done");

  const Json metrics =
      Json::parse(service.handle_http(get("/metrics")).body);
  EXPECT_EQ(
      metrics.at("metrics").at("serve.jobs_submitted").at("value").as_uint(),
      1u);
  EXPECT_EQ(
      metrics.at("metrics").at("serve.jobs_completed").at("value").as_uint(),
      1u);
  EXPECT_GE(metrics.at("metrics").at("grid.runs").at("value").as_uint(), 3u);
  EXPECT_EQ(metrics.at("cache").at("misses").as_uint(), 3u);

  // The trace carries the queued and run slices for job 1 on pid 1.
  const Json trace = Json::parse(service.handle_http(get("/v1/trace")).body);
  int begins = 0;
  int ends = 0;
  for (const Json& ev : trace.at("traceEvents").items()) {
    const std::string& ph = ev.at("ph").as_string();
    begins += ph == "B" ? 1 : 0;
    ends += ph == "E" ? 1 : 0;
  }
  EXPECT_EQ(begins, 2);  // "queued" and "run"
  EXPECT_EQ(ends, 2);

  const HttpResponse summary = service.handle_http(get("/v1/summary"));
  EXPECT_EQ(summary.status, 200);
  EXPECT_NE(summary.body.find("job 1: [engine] 3 runs"), std::string::npos);
}

TEST(Service, JobSummaryAttributesCacheDeltasPerJob) {
  SimService service(ServiceOptions{});
  EXPECT_EQ(service.handle_http(get("/v1/jobs/9/summary")).status, 404);

  const std::string body = small_request().dump();
  ASSERT_EQ(service.handle_http(post("/v1/jobs", body)).status, 202);
  ASSERT_EQ(wait_for_job(service, 1).at("state").as_string(), "done");
  ASSERT_EQ(service.handle_http(post("/v1/jobs", body)).status, 202);
  ASSERT_EQ(wait_for_job(service, 2).at("state").as_string(), "done");

  // Job 1 populated the shared cache, job 2 rode it: the per-job deltas
  // attribute exactly that, where the global counters only show totals.
  const Json first =
      Json::parse(service.handle_http(get("/v1/jobs/1/summary")).body);
  EXPECT_EQ(first.at("cache").at("misses").as_uint(), 3u);
  EXPECT_EQ(first.at("cache").at("stores").as_uint(), 3u);
  EXPECT_EQ(first.at("cache").at("memory_hits").as_uint(), 0u);
  const Json second =
      Json::parse(service.handle_http(get("/v1/jobs/2/summary")).body);
  EXPECT_EQ(second.at("cache").at("memory_hits").as_uint(), 3u);
  EXPECT_EQ(second.at("cache").at("misses").as_uint(), 0u);
  EXPECT_EQ(second.at("cache").at("stores").as_uint(), 0u);

  // Every job's status documents carry its trace id.
  EXPECT_NE(first.at("trace").as_string(), "0000000000000000");
  EXPECT_NE(first.at("trace").as_string(), second.at("trace").as_string());
}

TEST(Service, JobSummaryIsStatus202WhilePending) {
  ServiceOptions options;
  SimService service(options);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  service.test_run_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  ASSERT_EQ(
      service.handle_http(post("/v1/jobs", small_request().dump())).status,
      202);
  // While the job is queued/running the deltas do not exist yet; the
  // route answers 202 with the status document, like /results.
  const HttpResponse pending = service.handle_http(get("/v1/jobs/1/summary"));
  EXPECT_EQ(pending.status, 202);
  EXPECT_EQ(Json::parse(pending.body).find("cache"), nullptr);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  ASSERT_EQ(wait_for_job(service, 1).at("state").as_string(), "done");
  EXPECT_EQ(service.handle_http(get("/v1/jobs/1/summary")).status, 200);
}

TEST(Service, EventsRouteStreamsTheJobTraceAsNdjson) {
  SimService service(ServiceOptions{});
  EXPECT_EQ(service.handle_http(get("/v1/jobs/9/events")).status, 404);

  ASSERT_EQ(
      service.handle_http(post("/v1/jobs", small_request().dump())).status,
      202);
  ASSERT_EQ(wait_for_job(service, 1).at("state").as_string(), "done");

  const HttpResponse r = service.handle_http(get("/v1/jobs/1/events"));
  ASSERT_TRUE(static_cast<bool>(r.streamer));
  EXPECT_EQ(r.content_type, "application/x-ndjson");

  // The job is done, so the streamer drains the ring and returns.
  std::string collected;
  r.streamer([&collected](std::string_view chunk) {
    collected.append(chunk.data(), chunk.size());
    return true;
  });

  const std::string job_trace =
      Json::parse(service.handle_http(get("/v1/jobs/1")).body)
          .at("trace")
          .as_string();
  int begins = 0;
  int ends = 0;
  int runs = 0;
  bool saw_job = false;
  bool saw_phase = false;
  bool saw_cache = false;
  std::size_t start = 0;
  while (start < collected.size()) {
    const std::size_t nl = collected.find('\n', start);
    ASSERT_NE(nl, std::string::npos) << "stream must end on a newline";
    const Json ev = Json::parse(collected.substr(start, nl - start));
    start = nl + 1;
    if (ev.find("heartbeat") != nullptr) continue;
    // Schema: every event names the job's trace and a valid kind.
    EXPECT_EQ(ev.at("trace").as_string(), job_trace);
    EXPECT_GT(ev.at("seq").as_uint(), 0u);
    const std::string& kind = ev.at("kind").as_string();
    EXPECT_TRUE(kind == "B" || kind == "E" || kind == "i") << kind;
    begins += kind == "B" ? 1 : 0;
    ends += kind == "E" ? 1 : 0;
    const std::string& name = ev.at("name").as_string();
    saw_job = saw_job || name == "job";
    runs += (kind == "B" && name == "run") ? 1 : 0;
    saw_phase = saw_phase || name.rfind("phase.", 0) == 0;
    saw_cache = saw_cache || name.rfind("cache.", 0) == 0;
  }
  EXPECT_EQ(begins, ends);
  EXPECT_TRUE(saw_job);
  EXPECT_EQ(runs, 3);  // one run span per spec
  EXPECT_TRUE(saw_phase);
  EXPECT_TRUE(saw_cache);
}

TEST(Service, MetricsContentNegotiatesPrometheusText) {
  SimService service(ServiceOptions{});
  ASSERT_EQ(
      service.handle_http(post("/v1/jobs", small_request().dump())).status,
      202);
  ASSERT_EQ(wait_for_job(service, 1).at("state").as_string(), "done");

  HttpRequest prom_request = get("/metrics");
  prom_request.headers.push_back({"accept", "text/plain"});
  const HttpResponse prom = service.handle_http(prom_request);
  EXPECT_EQ(prom.status, 200);
  EXPECT_EQ(prom.content_type, "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(prom.body.find("# TYPE serve_jobs_completed_total counter\n"),
            std::string::npos);
  EXPECT_NE(prom.body.find("serve_jobs_completed_total 1\n"),
            std::string::npos);
  // The per-route and per-phase histograms render with label blocks.
  EXPECT_NE(prom.body.find("serve_route_ms_bucket{route=\"POST /v1/jobs\","),
            std::string::npos);
  EXPECT_NE(prom.body.find("exp_phase_ms_bucket{phase=\"replay\","),
            std::string::npos);
  // Cache movement rides as gauges.
  EXPECT_NE(prom.body.find("serve_cache{counter=\"misses\"} 3\n"),
            std::string::npos);

  // Default (no Accept) and JSON clients keep the JSON document.
  const HttpResponse json_default = service.handle_http(get("/metrics"));
  EXPECT_EQ(json_default.content_type, "application/json");
  const Json doc = Json::parse(json_default.body);
  EXPECT_NE(doc.find("metrics"), nullptr);
  EXPECT_NE(doc.find("cache"), nullptr);
  HttpRequest json_request = get("/metrics");
  json_request.headers.push_back({"accept", "application/json"});
  EXPECT_EQ(service.handle_http(json_request).content_type,
            "application/json");
}

TEST(Service, TraceCarriesPerJobFlowEvents) {
  SimService service(ServiceOptions{});
  ASSERT_EQ(
      service.handle_http(post("/v1/jobs", small_request().dump())).status,
      202);
  ASSERT_EQ(wait_for_job(service, 1).at("state").as_string(), "done");

  const std::string job_trace =
      Json::parse(service.handle_http(get("/v1/jobs/1")).body)
          .at("trace")
          .as_string();
  const Json trace = Json::parse(service.handle_http(get("/v1/trace")).body);
  int flow_starts = 0;
  int flow_finishes = 0;
  for (const Json& ev : trace.at("traceEvents").items()) {
    const std::string& ph = ev.at("ph").as_string();
    if (ph != "s" && ph != "f") continue;
    // Flow events correlate the submission with the run start via the
    // job's trace id.
    EXPECT_EQ(ev.at("id").as_string(), job_trace);
    flow_starts += ph == "s" ? 1 : 0;
    flow_finishes += ph == "f" ? 1 : 0;
  }
  EXPECT_EQ(flow_starts, 1);
  EXPECT_EQ(flow_finishes, 1);
}

// One-run request: the first job simulates it, later ones hit the cache.
std::string one_run_request(const char* workload = "gsm_dec") {
  Json runs = Json::array();
  runs.push_back(to_json(baseline_spec(workload)));
  Json request = Json::object();
  request["runs"] = std::move(runs);
  return request.dump();
}

// The /v1/trace document per job track, in order, as "<ph> <name>"
// strings ("B queued", "s job", "E ", ...); metadata is skipped. Also
// checks what every document must hold whatever the ring dropped: on each
// track ts never regresses and no E comes without an open B, and no flow
// finishes without its start.
std::map<std::uint64_t, std::vector<std::string>> trace_tracks(
    SimService& service) {
  const Json trace = Json::parse(service.handle_http(get("/v1/trace")).body);
  std::map<std::uint64_t, std::vector<std::string>> tracks;
  std::map<std::uint64_t, int> depth;
  std::map<std::uint64_t, std::uint64_t> last_ts;
  std::vector<std::string> flows;
  for (const Json& ev : trace.at("traceEvents").items()) {
    const std::string& ph = ev.at("ph").as_string();
    if (ph == "M") continue;
    const std::uint64_t job = ev.at("tid").as_uint();
    const std::uint64_t ts = ev.at("ts").as_uint();
    EXPECT_GE(ts, last_ts[job]) << "ts regressed on job " << job;
    last_ts[job] = ts;
    if (ph == "B") ++depth[job];
    if (ph == "E") {
      --depth[job];
      EXPECT_GE(depth[job], 0) << "E without B on job " << job;
    }
    if (ph == "s") flows.push_back(ev.at("id").as_string());
    if (ph == "f") {
      EXPECT_NE(std::find(flows.begin(), flows.end(), ev.at("id").as_string()),
                flows.end())
          << "f without s on job " << job;
    }
    tracks[job].push_back(ph + " " + ev.at("name").as_string());
  }
  return tracks;
}

TEST(Service, JobSubmittedPrecedesTheJobSpanUnderConcurrentSubmits) {
  ServiceOptions options;
  options.queue_limit = 64;
  SimService service(options);
  // Warm the cache so every burst job is one memory hit: the runner then
  // finishes each job fast enough to race the next submission.
  const std::string body = one_run_request();
  ASSERT_EQ(service.handle_http(post("/v1/jobs", body)).status, 202);
  ASSERT_EQ(wait_for_job(service, 1).at("state").as_string(), "done");

  constexpr int kThreads = 4;
  constexpr int kPerThread = 6;
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&service, &body] {
      for (int i = 0; i < kPerThread; ++i) {
        EXPECT_EQ(service.handle_http(post("/v1/jobs", body)).status, 202);
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  constexpr std::uint64_t kJobs = 1 + kThreads * kPerThread;
  for (std::uint64_t id = 1; id <= kJobs; ++id) {
    ASSERT_EQ(wait_for_job(service, id).at("state").as_string(), "done");
  }

  // The journal stamps seq (and ts_ms) in append order under its mutex.
  std::map<std::uint64_t, std::uint64_t> submitted_seq;
  std::map<std::uint64_t, std::uint64_t> begin_seq;
  for (const obs::JournalEvent& ev :
       service.journal().poll(0, 0, std::chrono::milliseconds(0))) {
    if (ev.name == "job.submitted") {
      submitted_seq[ev.attrs.at("job").as_uint()] = ev.seq;
    } else if (ev.name == "job" && ev.kind == 'B') {
      begin_seq[ev.attrs.at("job").as_uint()] = ev.seq;
    }
  }
  ASSERT_EQ(submitted_seq.size(), kJobs);
  ASSERT_EQ(begin_seq.size(), kJobs);
  for (std::uint64_t id = 1; id <= kJobs; ++id) {
    EXPECT_LT(submitted_seq[id], begin_seq[id]) << "job " << id;
  }

  // So every job renders whole, its queued slice closing where its run
  // slice opens — never before the queued slice began.
  const auto tracks = trace_tracks(service);
  const std::vector<std::string> whole = {"B queued", "s job", "E ",
                                          "B run",    "f job", "E "};
  for (std::uint64_t id = 1; id <= kJobs; ++id) {
    ASSERT_EQ(tracks.count(id), 1u) << "job " << id;
    EXPECT_EQ(tracks.at(id), whole) << "job " << id;
  }
}

TEST(Service, TraceIsDrawnFromTheJournalRingOnly) {
  // A gate the runner waits at inside each job's span: job N passes once
  // `passes` reaches N.
  std::mutex mu;
  std::condition_variable cv;
  int entered = 0;
  int passes = 0;
  const auto wait_entered = [&](int n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered >= n; });
  };
  const auto release = [&](int n) {
    {
      std::lock_guard<std::mutex> lock(mu);
      passes = n;
    }
    cv.notify_all();
  };
  SimService service(ServiceOptions{});
  service.test_run_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    const int job = ++entered;
    cv.notify_all();
    cv.wait(lock, [&] { return passes >= job; });
  };

  const std::string body = one_run_request();
  ASSERT_EQ(service.handle_http(post("/v1/jobs", body)).status, 202);
  wait_entered(1);  // job 1 is running, held inside its span
  ASSERT_EQ(service.handle_http(post("/v1/jobs", body)).status, 202);
  // Push everything journaled so far out of the service's 8192-event ring,
  // as a big grid pushes out its own begin events: job 1's submission and
  // span begin, job 2's submission.
  const obs::TraceContext filler{service.journal().new_id(), 0};
  for (int i = 0; i < 8192; ++i) service.journal().instant(filler, "filler");
  EXPECT_GE(service.journal().ring_dropped(), 3u);
  release(1);
  wait_entered(2);  // job 1 ended; job 2 is running, held in its span
  // Job 3 must be simulated, so it queues for the runner behind job 2; a
  // cache-resident job would start on the cache lane at once.
  ASSERT_EQ(
      service.handle_http(post("/v1/jobs", one_run_request("g721_dec")))
          .status,
      202);

  // Job 1 kept only its span's end, so it renders nothing. Job 2 kept its
  // run but not its submission: a run slice, still open, and no queued
  // slice or flow. Job 3 is queued: an open queued slice and flow start.
  auto tracks = trace_tracks(service);
  EXPECT_EQ(tracks.count(1), 0u);
  EXPECT_EQ(tracks[2], (std::vector<std::string>{"B run"}));
  EXPECT_EQ(tracks[3], (std::vector<std::string>{"B queued", "s job"}));

  release(3);
  ASSERT_EQ(wait_for_job(service, 3).at("state").as_string(), "done");
  tracks = trace_tracks(service);
  EXPECT_EQ(tracks.count(1), 0u);
  EXPECT_EQ(tracks[2], (std::vector<std::string>{"B run", "E "}));
  EXPECT_EQ(tracks[3], (std::vector<std::string>{"B queued", "s job", "E ",
                                                  "B run", "f job", "E "}));
}

TEST(Service, CachedJobFinishesWhileTheRunnerSimulates) {
  // The first job to reach the hook once it is armed holds its thread.
  std::mutex mu;
  std::condition_variable cv;
  bool armed = false;
  bool held = false;
  bool release = false;
  SimService service(ServiceOptions{});
  service.test_run_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    if (!armed || held) return;
    held = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  // Lets the held thread go on every exit from the test, a failed check
  // included: the service's destructor joins it.
  struct Releaser {
    std::function<void()> go;
    ~Releaser() { go(); }
  } releaser{[&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();
  }};

  const std::string cached = one_run_request("gsm_dec");
  ASSERT_EQ(service.handle_http(post("/v1/jobs", cached)).status, 202);
  ASSERT_EQ(wait_for_job(service, 1).at("state").as_string(), "done");
  {
    std::lock_guard<std::mutex> lock(mu);
    armed = true;
  }
  // Job 2 needs a simulation: the runner takes it and is held.
  ASSERT_EQ(
      service.handle_http(post("/v1/jobs", one_run_request("g721_dec")))
          .status,
      202);
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return held; });
  }
  // Job 3's one run is in the memory tier: the lane runs it while the
  // runner is still held in job 2.
  ASSERT_EQ(service.handle_http(post("/v1/jobs", cached)).status, 202);
  EXPECT_EQ(wait_for_job(service, 3).at("state").as_string(), "done");
  EXPECT_EQ(Json::parse(service.handle_http(get("/v1/jobs/2")).body)
                .at("state")
                .as_string(),
            "running");
  releaser.go();
  ASSERT_EQ(wait_for_job(service, 2).at("state").as_string(), "done");

  const auto results_of = [&](std::uint64_t id) {
    return Json::parse(
               service
                   .handle_http(get("/v1/jobs/" + std::to_string(id) +
                                    "/results"))
                   .body)
        .at("results")
        .dump();
  };
  EXPECT_EQ(results_of(3), results_of(1));
  const auto cache_of = [&](std::uint64_t id) {
    return Json::parse(
               service
                   .handle_http(get("/v1/jobs/" + std::to_string(id) +
                                    "/summary"))
                   .body)
        .at("cache");
  };
  const Json lane = cache_of(3);
  EXPECT_EQ(lane.at("memory_hits").as_uint(), 1u);
  EXPECT_EQ(lane.at("misses").as_uint(), 0u);
  EXPECT_EQ(lane.at("stores").as_uint(), 0u);
  const Json runner = cache_of(2);
  EXPECT_EQ(runner.at("memory_hits").as_uint(), 0u);
  EXPECT_EQ(runner.at("misses").as_uint(), 1u);
  EXPECT_EQ(runner.at("stores").as_uint(), 1u);

  // Only job 3 ran on the lane, in both forms of /metrics.
  const Json metrics = Json::parse(service.handle_http(get("/metrics")).body);
  EXPECT_EQ(metrics.at("metrics").at("serve.lane_jobs").at("value").as_uint(),
            1u);
  HttpRequest prom = get("/metrics");
  prom.headers.push_back({"accept", "text/plain"});
  EXPECT_NE(service.handle_http(prom).body.find("serve_lane_jobs_total 1\n"),
            std::string::npos);
}

TEST(Service, JobTheLaneCannotCheckFailsOnTheRunner) {
  // Two specs named alike: the lane cannot build the grid to check it, so
  // the job goes to the runner, whose job path records the failure.
  SimService service(ServiceOptions{});
  Json runs = Json::array();
  runs.push_back(to_json(baseline_spec("gsm_dec")));
  runs.push_back(to_json(baseline_spec("gsm_dec")));
  Json request = Json::object();
  request["runs"] = std::move(runs);
  ASSERT_EQ(service.handle_http(post("/v1/jobs", request.dump())).status,
            202);
  const Json status = wait_for_job(service, 1);
  EXPECT_EQ(status.at("state").as_string(), "failed");
  EXPECT_NE(status.at("error").as_string().find("duplicate spec"),
            std::string::npos)
      << status.dump();
  const Json metrics = Json::parse(service.handle_http(get("/metrics")).body);
  EXPECT_EQ(metrics.at("metrics").at("serve.jobs_failed").at("value").as_uint(),
            1u);
  EXPECT_EQ(metrics.at("metrics").find("serve.lane_jobs"), nullptr);
}

TEST(Service, KeepsOnlyTheNewestFinishedJobs) {
  // Past the cap, each finishing job drops the oldest finished one. A
  // dropped id answers 410 naming the cap on every per-job route; an id
  // never issued stays 404.
  ServiceOptions options;
  options.max_retained_jobs = 4;
  SimService service(options);
  const std::string body = one_run_request();
  for (std::uint64_t id = 1; id <= 40; ++id) {
    const HttpResponse r = service.handle_http(post("/v1/jobs", body));
    ASSERT_EQ(r.status, 202);
    ASSERT_EQ(Json::parse(r.body).at("job").as_uint(), id);
    ASSERT_EQ(wait_for_job(service, id).at("state").as_string(), "done");
  }

  for (std::uint64_t id = 1; id <= 41; ++id) {
    for (const char* suffix : {"", "/results", "/summary", "/events"}) {
      const std::string path = "/v1/jobs/" + std::to_string(id) + suffix;
      const HttpResponse r = service.handle_http(get(path));
      if (id <= 36) {
        ASSERT_EQ(r.status, 410) << path;
        EXPECT_EQ(Json::parse(r.body).at("max_retained_jobs").as_uint(), 4u)
            << path;
        EXPECT_NE(r.body.find("only the newest 4 finished jobs are kept"),
                  std::string::npos)
            << r.body;
      } else {
        EXPECT_EQ(r.status, id <= 40 ? 200 : 404) << path;
      }
    }
  }

  const Json list = Json::parse(service.handle_http(get("/v1/jobs")).body);
  ASSERT_EQ(list.at("jobs").size(), 4u);
  EXPECT_EQ(list.at("jobs").items().front().at("job").as_uint(), 37u);
  const std::string summary = service.handle_http(get("/v1/summary")).body;
  EXPECT_EQ(std::count(summary.begin(), summary.end(), '\n'), 4);
  EXPECT_EQ(summary.rfind("job 37: ", 0), 0u) << summary;
  const Json metrics = Json::parse(service.handle_http(get("/metrics")).body);
  EXPECT_EQ(
      metrics.at("metrics").at("serve.jobs_evicted").at("value").as_uint(),
      36u);
}

// ---------------------------------------------------------------------------
// HTTP transport over real loopback sockets.

// Minimal client: one request, read to EOF (the server closes).
std::string http_round_trip(int port, const std::string& raw_request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  EXPECT_EQ(::send(fd, raw_request.data(), raw_request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(raw_request.size()));
  std::string response;
  char chunk[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string request_text(const std::string& method, const std::string& target,
                         const std::string& body) {
  std::string out = method + " " + target + " HTTP/1.1\r\n";
  out += "Host: 127.0.0.1\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  out += body;
  return out;
}

TEST(Http, ServesTheServiceOverRealSockets) {
  SimService service(ServiceOptions{});
  HttpServer::Options options;  // ephemeral port
  HttpServer server(options, [&service](const HttpRequest& request) {
    return service.handle_http(request);
  });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ASSERT_GT(server.port(), 0);

  const std::string health =
      http_round_trip(server.port(), request_text("GET", "/healthz", ""));
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(health.find("\"status\": \"ok\""), std::string::npos);

  const std::string submitted = http_round_trip(
      server.port(),
      request_text("POST", "/v1/jobs", small_request().dump()));
  EXPECT_NE(submitted.find("HTTP/1.1 202 Accepted"), std::string::npos);

  ASSERT_EQ(wait_for_job(service, 1).at("state").as_string(), "done");
  const std::string results = http_round_trip(
      server.port(), request_text("GET", "/v1/jobs/1/results", ""));
  EXPECT_NE(results.find("HTTP/1.1 200 OK"), std::string::npos);
  // The socket-fetched body is the same document handle_http returns.
  const std::string direct =
      service.handle_http(get("/v1/jobs/1/results")).body;
  const std::size_t body_at = results.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  EXPECT_EQ(results.substr(body_at + 4), direct);

  const std::string missing =
      http_round_trip(server.port(), request_text("GET", "/v1/jobs/9", ""));
  EXPECT_NE(missing.find("HTTP/1.1 404 Not Found"), std::string::npos);

  const std::string malformed =
      http_round_trip(server.port(), "GET missing-the-version\r\n\r\n");
  EXPECT_NE(malformed.find("HTTP/1.1 400 Bad Request"), std::string::npos);

  server.stop();
}

// Splits a raw HTTP response into (head, de-chunked body); fails the test
// on a malformed chunk framing.
std::string dechunk(const std::string& raw, std::string* head) {
  const std::size_t split = raw.find("\r\n\r\n");
  EXPECT_NE(split, std::string::npos);
  *head = raw.substr(0, split);
  std::string body;
  std::size_t at = split + 4;
  for (;;) {
    const std::size_t line_end = raw.find("\r\n", at);
    EXPECT_NE(line_end, std::string::npos) << "truncated chunk size line";
    const std::size_t size =
        std::stoull(raw.substr(at, line_end - at), nullptr, 16);
    at = line_end + 2;
    if (size == 0) break;
    body += raw.substr(at, size);
    at += size + 2;  // chunk data + trailing CRLF
  }
  return body;
}

TEST(Http, StreamsChunkedResponsesOverSockets) {
  HttpServer::Options options;
  HttpServer server(options, [](const HttpRequest&) {
    HttpResponse r;
    r.content_type = "text/plain";
    r.streamer = [](const ChunkWriter& write) {
      write("hello ");
      write("");  // empty chunks are suppressed, not stream terminators
      write("world");
    };
    return r;
  });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  std::string head;
  const std::string raw =
      http_round_trip(server.port(), request_text("GET", "/stream", ""));
  const std::string body = dechunk(raw, &head);
  EXPECT_NE(head.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(head.find("Transfer-Encoding: chunked"), std::string::npos);
  EXPECT_NE(head.find("Connection: close"), std::string::npos);
  EXPECT_EQ(head.find("Content-Length"), std::string::npos);
  EXPECT_EQ(body, "hello world");
  server.stop();
}

TEST(Http, EventsStreamEndToEndOverSockets) {
  SimService service(ServiceOptions{});
  HttpServer::Options options;
  HttpServer server(options, [&service](const HttpRequest& request) {
    return service.handle_http(request);
  });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const std::string submitted = http_round_trip(
      server.port(),
      request_text("POST", "/v1/jobs", small_request().dump()));
  EXPECT_NE(submitted.find("HTTP/1.1 202 Accepted"), std::string::npos);
  ASSERT_EQ(wait_for_job(service, 1).at("state").as_string(), "done");

  // The job is finished, so the stream drains and closes on its own; the
  // client just reads to EOF like any other route.
  std::string head;
  const std::string raw = http_round_trip(
      server.port(), request_text("GET", "/v1/jobs/1/events", ""));
  const std::string body = dechunk(raw, &head);
  EXPECT_NE(head.find("Transfer-Encoding: chunked"), std::string::npos);
  EXPECT_NE(head.find("Content-Type: application/x-ndjson"),
            std::string::npos);
  int events = 0;
  std::size_t start = 0;
  while (start < body.size()) {
    const std::size_t nl = body.find('\n', start);
    ASSERT_NE(nl, std::string::npos);
    const Json ev = Json::parse(body.substr(start, nl - start));
    start = nl + 1;
    events += ev.find("heartbeat") == nullptr ? 1 : 0;
  }
  EXPECT_GT(events, 0);
  server.stop();
}

TEST(Http, RendersResponsesWithLengthAndClose) {
  HttpResponse r;
  r.status = 429;
  r.body = "{\"error\": \"x\"}";
  const std::string text = render_http_response(r);
  EXPECT_NE(text.find("HTTP/1.1 429 Too Many Requests\r\n"),
            std::string::npos);
  EXPECT_NE(text.find("Content-Length: 14\r\n"), std::string::npos);
  EXPECT_NE(text.find("Connection: close\r\n"), std::string::npos);
  EXPECT_NE(text.find("Content-Type: application/json\r\n"),
            std::string::npos);
  r.status = 410;
  EXPECT_NE(render_http_response(r).find("HTTP/1.1 410 Gone\r\n"),
            std::string::npos);
}

}  // namespace
}  // namespace t1000::serve
