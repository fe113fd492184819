// serve_mix: an in-process SimService (grid jobs=1) behind HttpServer on
// 127.0.0.1, driven by a closed loop of three clients. Each client submits
// a job, polls GET /v1/jobs/<id>/results (202 until done) at a fixed
// interval and takes the 200 body as the results.
//
// Most requests are warm: one of a fixed set of small grids already in
// the service's memory tier, so they exercise cache hits, JSON and HTTP.
// One request in every kColdEvery is cold: it names a machine the service
// has not seen (a seeded reconfiguration latency) with verify and observe
// on, so it runs analysis, verification, recording, an observed replay, a
// disk store and LRU eviction under the cache's small byte budget.
//
// The clients poll rather than wait on /v1/jobs/<id>/events because that
// stream closes only one journal poll (500 ms) after the job's last event,
// which would swamp every round trip (see perfbench/README.md).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <random>
#include <thread>

#include "bench.hpp"
#include "decompose.hpp"
#include "harness/serialize.hpp"
#include "http_client.hpp"
#include "serve/http.hpp"
#include "serve/service.hpp"
#include "spans.hpp"

namespace perfbench {

using namespace t1000;

namespace {

constexpr int kClients = 3;
constexpr int kColdEvery = 32;
// Job budget per second of --seconds: about two thirds of what a 4-core
// host serves (~290 jobs/s), so the budget, not the clock, ends the loop
// unless the host is a third slower than that.
constexpr double kJobsPerSecond = 200.0;
// The loop runs in this many segments, with the reference timed between
// them (see run_serve_mix).
constexpr int kSegments = 16;
// Set-ups are short (~0.7 s) and spread by a third from one to the next,
// so more of them steady their median.
constexpr int kSetups = 9;
// Long enough that a warm job (under 1 ms of service time even on a slow
// host) is done by the first poll: with a shorter interval the warm
// round trip flips between one and two intervals as the host's speed
// drifts, which moved rtt_p50_ms by 30% between runs.
constexpr auto kPollInterval = std::chrono::milliseconds(3);
// Small enough that cold stores evict older entries (LRU) every few jobs.
constexpr std::uint64_t kCacheBudgetBytes = 16 * 1024;
// Cold latencies are drawn without repetition from [kFirstColdLatency,
// kFirstColdLatency + kColdLatencies); the warm set uses 10.
constexpr int kFirstColdLatency = 11;
constexpr int kColdLatencies = 500;
// Cold requests the untraced run re-runs through run_local afterwards.
constexpr std::size_t kColdCrossChecks = 6;
// Cold requests the traced run decomposes layer by layer.
constexpr std::size_t kColdDecompositions = 3;

const char* const kColdWorkload = "gsm_dec";
const char* const kWarmWorkloads[] = {"gsm_dec", "g721_dec", "epic",
                                      "mpeg2_dec"};
constexpr int kWarm = 4;

std::vector<RunSpec> warm_specs(int index) {
  const std::string w = kWarmWorkloads[index];
  return {baseline_spec(w), selective_spec(w, "sel2", 2, 10)};
}

std::vector<RunSpec> cold_specs(int latency) {
  RunSpec base = baseline_spec(kColdWorkload);
  base.machine.pfu.reconfig_latency = latency;
  return {base, selective_spec(kColdWorkload, "sel2", 2, latency)};
}

std::string request_body(const std::vector<RunSpec>& specs, bool cold) {
  Json runs = Json::array();
  for (const RunSpec& spec : specs) runs.push_back(to_json(spec));
  Json doc = Json::object();
  doc["runs"] = std::move(runs);
  if (cold) {
    Json options = Json::object();
    options["verify"] = Json(true);
    options["observe"] = Json(true);
    doc["options"] = std::move(options);
  }
  return doc.dump();
}

// The request sequence every client draws from, in order: one cold
// request at a seeded position in the middle half of each block of
// kColdEvery, the rest seeded picks from the warm set. Keeping colds at
// least half a block apart means no cold job queues behind another, which
// would put a seed-dependent double-cold mode into the tail.
struct Schedule {
  std::vector<int> kind;     // warm index, or -1 for cold
  std::vector<int> latency;  // cold latency per slot (0 for warm)

  explicit Schedule(std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<int> latencies(kColdLatencies);
    for (int i = 0; i < kColdLatencies; ++i) {
      latencies[static_cast<std::size_t>(i)] = kFirstColdLatency + i;
    }
    std::shuffle(latencies.begin(), latencies.end(), rng);
    for (int block = 0; block < kColdLatencies; ++block) {
      const int cold_at =
          kColdEvery / 4 + static_cast<int>(rng() % (kColdEvery / 2));
      for (int i = 0; i < kColdEvery; ++i) {
        const bool cold = i == cold_at;
        kind.push_back(cold ? -1 : static_cast<int>(rng() % kWarm));
        latency.push_back(cold ? latencies[static_cast<std::size_t>(block)]
                               : 0);
      }
    }
  }
};

// One service + server in a fresh cache directory; torn down in reverse.
struct ServeStack {
  std::string dir;
  std::unique_ptr<serve::SimService> service;
  std::unique_ptr<serve::HttpServer> http;

  explicit ServeStack(const std::string& work_dir) {
    std::string pattern = work_dir + "/serve-XXXXXX";
    if (mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("mkdtemp under " + work_dir + " failed");
    }
    dir = pattern;
    serve::ServiceOptions options;
    options.jobs = 1;
    options.cache_dir = dir + "/cache";
    options.cache_budget_bytes = kCacheBudgetBytes;
    service = std::make_unique<serve::SimService>(options);
    serve::HttpServer::Options http_options;
    http_options.port = 0;
    http_options.handler_threads = kClients + 1;
    serve::SimService* svc = service.get();
    http = std::make_unique<serve::HttpServer>(
        http_options,
        [svc](const serve::HttpRequest& r) { return svc->handle_http(r); });
    std::string error;
    if (!http->start(&error)) throw std::runtime_error("http: " + error);
  }
  ~ServeStack() {
    http->stop();
    http.reset();
    service.reset();
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
  }
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  int port() const { return http->port(); }
};

struct JobRecord {
  bool ok = false;
  bool cold = false;
  int kind = 0;
  int latency = 0;
  int polls = 0;
  int segment = 0;
  bool rejected = false;
  std::uint64_t trace = 0;
  double rtt_ms = 0.0;
  double slept_ms = 0.0;  // the client's own poll sleeps inside rtt_ms
  double job_wall_ms = 0.0;
  std::string body;     // the request
  std::string results;  // compact "results" member of the fetched document
  std::string error;
  Json engine;          // the fetched document's "engine" section
  ResultCache::Counters cache;  // the job's cache delta (traced runs)
};

// Submits `body`, polls until the results are ready and fetches them.
JobRecord run_job(int port, const std::string& body, SpanLog& log) {
  JobRecord job;
  job.body = body;
  HttpReply fetched;
  const std::int64_t start = now_ns();
  std::uint64_t id = 0;
  {
    const Span request(log, "request");
    HttpReply submitted;
    {
      const Span span(log, "serve.submit");
      submitted = http_request(port, "POST", "/v1/jobs", body);
    }
    if (submitted.status != 202) {
      job.rejected = submitted.status == 429 || submitted.status == 503;
      job.error = "submit: HTTP " + std::to_string(submitted.status) + " " +
                  submitted.body;
      return job;
    }
    id = Json::parse(submitted.body).at("job").as_uint();
    const std::string target = "/v1/jobs/" + std::to_string(id) + "/results";
    // Sleep first: a poll racing the runner right after the submit would
    // split warm round trips between two modes by luck.
    for (;;) {
      const std::int64_t sleep_start = now_ns();
      std::this_thread::sleep_for(kPollInterval);
      job.slept_ms += ms_between(sleep_start, now_ns());
      const int span = log.begin("serve.poll");
      HttpReply reply = http_request(port, "GET", target);
      log.end(span);
      if (reply.status != 202) {
        log.rename(span, "serve.fetch");
        fetched = std::move(reply);
        break;
      }
      ++job.polls;
    }
  }
  job.rtt_ms = ms_between(start, now_ns());
  if (fetched.status != 200) {
    job.error = "results: HTTP " + std::to_string(fetched.status);
    return job;
  }
  Json doc;
  {
    const Span span(log, "harness.json_parse");
    doc = Json::parse(fetched.body);
  }
  job.results = doc.at("results").dump();
  job.engine = doc.at("engine");
  job.job_wall_ms = job.engine.at("wall_ms").as_double();
  if (log.enabled()) {
    // The job's cache-counter deltas; outside the timed round trip.
    const HttpReply summary = http_request(
        port, "GET", "/v1/jobs/" + std::to_string(id) + "/summary");
    const Json s = Json::parse(summary.body).at("cache");
    job.cache.memory_hits = s.at("memory_hits").as_uint();
    job.cache.disk_hits = s.at("disk_hits").as_uint();
    job.cache.misses = s.at("misses").as_uint();
    job.cache.stores = s.at("stores").as_uint();
    job.cache.size_evicted = s.at("size_evicted").as_uint();
  }
  job.ok = true;
  return job;
}

// What a fresh in-memory service computes for `body`, for cross-checks.
std::string run_local_results(const std::string& body) {
  serve::ServiceOptions options;
  options.jobs = 1;
  serve::SimService local(options);
  return local.run_local(Json::parse(body)).at("results").dump();
}

// Brings up a service and primes the warm set (each warm grid runs cold
// once). Returns the primed results of each warm request.
std::unique_ptr<ServeStack> set_up(const RunOptions& options,
                                   std::vector<std::string>* warm_results,
                                   Report* report) {
  auto stack = std::make_unique<ServeStack>(options.work_dir);
  SpanLog off(false);
  for (int i = 0; i < kWarm; ++i) {
    JobRecord job = run_job(stack->port(), request_body(warm_specs(i), false),
                            off);
    ++report->attempted;
    if (!job.ok) {
      report->fail("priming warm request " + std::to_string(i) + ": " +
                   job.error);
    }
    if (warm_results->size() < static_cast<std::size_t>(kWarm)) {
      warm_results->push_back(job.results);
    } else if ((*warm_results)[static_cast<std::size_t>(i)] != job.results) {
      report->fail("warm request " + std::to_string(i) +
                   " differs across set-ups");
    }
  }
  return stack;
}

double warm_geomean(const std::vector<std::string>& warm_results) {
  std::vector<double> ratios;
  for (const std::string& text : warm_results) {
    const Json results = Json::parse(text);
    const double base = results.at(0).at("outcome").at("stats").at("cycles")
                            .as_double();
    const double sel = results.at(1).at("outcome").at("stats").at("cycles")
                           .as_double();
    ratios.push_back(base / sel);
  }
  return geomean(ratios);
}

double median_span_ms(const SpanLog& log, const std::string& name) {
  std::vector<double> v;
  for (const SpanRecord& s : log.spans()) {
    if (s.name == name) v.push_back(ms_between(s.start_ns, s.end_ns));
  }
  return median(v);
}

// The traced run's per-layer report: client-side serve spans for every
// job, plus a layer-by-layer decomposition of a few cold requests held to
// what the service returned for them.
void traced_serve_report(const RunOptions& options,
                         const std::vector<JobRecord>& jobs,
                         const std::vector<const JobRecord*>& cold,
                         const std::vector<SpanLog>& client_logs,
                         std::uint64_t rejected, std::int64_t begin,
                         Report* report) {
  // Totals over the run's timing and seeded latencies; not ledger counts.
  report->unledgered = {"uarch.cycles",          "uarch.stall_cycles",
                        "uarch.ext_reconfig_cycles", "uarch.pfu_reconfigs",
                        "harness.cache_hits",    "harness.cache_misses",
                        "harness.cache_stores",  "harness.cache_size_evicted",
                        "harness.cache_lookups"};
  const double span_ns = calibrate_span_ns(100000);
  SpanLog log(true);
  for (const SpanLog& client : client_logs) log.absorb(client);

  Decomposition first;
  const std::size_t n = std::min(kColdDecompositions, cold.size());
  for (std::size_t i = 0; i < n; ++i) {
    const JobRecord& job = *cold[i * cold.size() / n];
    log.set_trace(job.trace);
    ++report->attempted;
    const Span root(log, "cold");
    std::string local;
    {
      const Span span(log, "harness.grid");
      local = run_local_results(job.body);
    }
    if (local != job.results) {
      report->fail("cold request @" + std::to_string(job.latency) +
                   " differs from run_local");
    }
    Decomposition d = decompose(cold_specs(job.latency),
                                {.verify = true, .batch = false}, log);
    const Json fetched = Json::parse(job.results);
    for (const Json& entry : fetched.items()) {
      const Json& spec = entry.at("spec");
      const std::string key = spec.at("workload").as_string() + "/" +
                              spec.at("label").as_string();
      const Json& outcome = entry.at("outcome");
      if (d.stats[key] != outcome.at("stats").dump() ||
          d.stalls[key] != outcome.at("stalls").dump()) {
        d.mismatches.push_back(key + ": service and decomposition disagree");
      }
    }
    for (const std::string& m : d.mismatches) report->fail(m);
    if (i == 0) first = std::move(d);
  }
  if (n == 0) report->fail("no cold request completed");
  report_layers(first, log, report);

  ResultCache::Counters cache;
  std::vector<double> overhead_ms;
  std::vector<double> job_wall_ms;
  double polls = 0.0;
  for (const JobRecord& job : jobs) {
    if (!job.ok) continue;
    cache.memory_hits += job.cache.memory_hits;
    cache.disk_hits += job.cache.disk_hits;
    cache.misses += job.cache.misses;
    cache.stores += job.cache.stores;
    cache.size_evicted += job.cache.size_evicted;
    overhead_ms.push_back(job.rtt_ms - job.job_wall_ms);
    job_wall_ms.push_back(job.job_wall_ms);
    polls += job.polls;
  }
  report->metric("harness.cache_hit_ratio",
                 cache.lookups() == 0
                     ? 0.0
                     : static_cast<double>(cache.hits()) /
                           static_cast<double>(cache.lookups()),
                 "ratio");
  report->count("harness.cache_lookups", cache.lookups());
  // Engine tallies of one cold job: the same for every cold job.
  const Json& engine = cold.empty() ? Json::object() : cold.front()->engine;
  for (const char* name :
       {"traces_recorded", "trace_replays", "batches", "batched_runs"}) {
    const Json* v = engine.find(name);
    report->count(std::string("harness.") + name, v ? v->as_uint() : 0);
  }
  report->count("harness.cache_hits", cache.hits());
  report->count("harness.cache_misses", cache.misses);
  report->count("harness.cache_stores", cache.stores);
  report->count("harness.cache_size_evicted", cache.size_evicted);

  report->metric("serve.submit_ms", median_span_ms(log, "serve.submit"), "ms");
  report->metric("serve.poll_ms", median_span_ms(log, "serve.poll"), "ms");
  report->metric("serve.polls_per_job",
                 jobs.empty() ? 0.0 : polls / static_cast<double>(jobs.size()),
                 "count");
  report->metric("serve.fetch_ms", median_span_ms(log, "serve.fetch"), "ms");
  report->metric("serve.job_wall_ms", median(job_wall_ms), "ms");
  report->metric("serve.overhead_ms", median(overhead_ms), "ms");
  report->count("serve.rejected", rejected);

  report->note("serve.* and harness.json_parse: medians over " +
               std::to_string(jobs.size()) +
               " jobs; other layers: medians over " +
               std::to_string(n) + " decomposed cold requests");
  report_tracing(log, span_ns, begin, options, report);
}

}  // namespace

void run_serve_mix(const RunOptions& options, Report* report) {
  // The host slows down by up to a half in phases of seconds to minutes.
  // The cold jobs' times, the job rate and the set-ups are therefore scaled
  // by the host's speed while they ran (speed_scale): the reference is
  // timed after every set-up and every segment of the loop, while the
  // clients are idle. The warm round trip is mostly the fixed poll
  // interval and is not scaled.
  //
  // Set-up: service start plus priming the warm set, kSetups times; the
  // last stack serves the measured loop. The first is timed from process
  // start.
  std::vector<std::string> warm_results;
  std::vector<double> raw_setup_s;
  std::vector<double> setup_s;
  std::vector<double> reference;
  std::unique_ptr<ServeStack> stack;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t start = i == 0 ? options.start_ns : now_ns();
    stack.reset();
    stack = set_up(options, &warm_results, report);
    raw_setup_s.push_back(ms_between(start, now_ns()) / 1000.0);
    reference.push_back(reference_ms());
    const double before =
        i == 0 ? reference.back() : reference[reference.size() - 2];
    setup_s.push_back(raw_setup_s.back() *
                      speed_scale(before, reference.back()));
  }
  std::vector<std::string> warm_bodies;
  for (int i = 0; i < kWarm; ++i) {
    warm_bodies.push_back(request_body(warm_specs(i), false));
  }

  const Schedule schedule(options.seed);
  // The service keeps every finished job's results, so its memory grows
  // with the jobs served; a fixed job budget keeps peak_rss_mib from
  // tracking the host's speed. The loop ends at the budget or the time.
  const auto budget = static_cast<std::size_t>(kJobsPerSecond * options.seconds);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> stop{false};
  std::vector<std::vector<JobRecord>> per_client(kClients);
  std::vector<SpanLog> logs(kClients, SpanLog(options.trace));
  std::vector<double> scale;  // per segment
  double raw_elapsed_s = 0.0;
  double scaled_elapsed_s = 0.0;
  const std::int64_t begin = now_ns();
  for (int segment = 0; segment < kSegments && !stop.load(); ++segment) {
    const std::size_t end = budget * static_cast<std::size_t>(segment + 1) /
                            static_cast<std::size_t>(kSegments);
    std::atomic<int> finished{0};
    const std::int64_t segment_start = now_ns();
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c, segment] {
        while (!stop.load()) {
          const std::size_t n = next.fetch_add(1);
          if (n >= end) break;
          const std::size_t slot = n % schedule.kind.size();
          const int kind = schedule.kind[slot];
          const int latency = schedule.latency[slot];
          SpanLog& log = logs[static_cast<std::size_t>(c)];
          log.set_trace(slot + 1);
          const std::string body =
              kind < 0 ? request_body(cold_specs(latency), true)
                       : warm_bodies[static_cast<std::size_t>(kind)];
          JobRecord job;
          try {
            job = run_job(stack->port(), body, log);
          } catch (const std::exception& e) {
            // A malformed reply; the job counts as failed.
            job.ok = false;
            job.error = std::string("client: ") + e.what();
          }
          job.cold = kind < 0;
          job.kind = kind;
          job.latency = latency;
          job.segment = segment;
          job.trace = slot + 1;
          per_client[static_cast<std::size_t>(c)].push_back(std::move(job));
        }
        ++finished;
      });
    }
    while (finished.load() < kClients &&
           ms_between(begin, now_ns()) < options.seconds * 1000.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (finished.load() < kClients) stop.store(true);
    for (std::thread& t : clients) t.join();
    // The claims past the segment's end were never run.
    next.store(end);
    const double segment_s = ms_between(segment_start, now_ns()) / 1000.0;
    reference.push_back(reference_ms());
    scale.push_back(
        speed_scale(reference[reference.size() - 2], reference.back()));
    raw_elapsed_s += segment_s;
    scaled_elapsed_s += segment_s * scale.back();
  }

  std::vector<JobRecord> jobs;
  for (auto& records : per_client) {
    for (JobRecord& job : records) jobs.push_back(std::move(job));
  }
  // The median is taken over warm round trips, the tail over the cold
  // round trips alone, whose number the schedule fixes; warm jobs that
  // queued behind a cold one would otherwise put a second, seed-dependent
  // mode under the tail percentile. The warm round trip net of the
  // client's poll sleeps is printed beside it: it is the part a faster
  // request path shrinks, but it spread by half between runs.
  std::vector<double> warm_ms;
  std::vector<double> warm_net_ms;
  std::vector<double> cold_rtt_ms;
  std::vector<double> cold_wall_s;
  std::vector<double> raw_cold_rtt_ms;
  std::vector<double> raw_cold_wall_s;
  std::vector<const JobRecord*> cold;
  std::uint64_t rejected = 0;
  for (const JobRecord& job : jobs) {
    ++report->attempted;
    if (job.rejected) ++rejected;
    if (!job.ok) {
      report->fail(job.error);
      continue;
    }
    if (job.cold) {
      const double s = scale[static_cast<std::size_t>(job.segment)];
      raw_cold_rtt_ms.push_back(job.rtt_ms);
      raw_cold_wall_s.push_back(job.job_wall_ms / 1000.0);
      cold_rtt_ms.push_back(job.rtt_ms * s);
      cold_wall_s.push_back(job.job_wall_ms / 1000.0 * s);
      cold.push_back(&job);
      continue;
    }
    warm_ms.push_back(job.rtt_ms);
    warm_net_ms.push_back(job.rtt_ms - job.slept_ms);
    if (job.results != warm_results[static_cast<std::size_t>(job.kind)]) {
      report->fail("warm request " + std::to_string(job.kind) +
                   " returned different results");
    }
  }
  const std::size_t completed = warm_ms.size() + cold_rtt_ms.size();

  // Cross-check: fetched results equal run_local on the same body, for
  // every warm request and an even sample of the cold ones.
  for (int i = 0; i < kWarm; ++i) {
    ++report->attempted;
    if (run_local_results(warm_bodies[static_cast<std::size_t>(i)]) !=
        warm_results[static_cast<std::size_t>(i)]) {
      report->fail("warm request " + std::to_string(i) +
                   " differs from run_local");
    }
  }
  const std::size_t checks = std::min(kColdCrossChecks, cold.size());
  for (std::size_t i = 0; i < checks; ++i) {
    const JobRecord& job = *cold[i * cold.size() / checks];
    ++report->attempted;
    if (run_local_results(job.body) != job.results) {
      report->fail("cold request @" + std::to_string(job.latency) +
                   " differs from run_local");
    }
  }

  if (!options.trace) {
    const Tail t = tail(cold_rtt_ms);
    report->metric("sweep_s", median(cold_wall_s), "s");
    report->metric("rtt_p50_ms", median(warm_ms), "ms");
    report->metric("rtt_tail_ms", t.value, "ms");
    report->metric("jobs_per_s",
                   static_cast<double>(completed) / scaled_elapsed_s, "1/s");
    report->metric("speedup_sel2_geomean", warm_geomean(warm_results), "x");
    report->metric("peak_rss_mib", peak_rss_mib(), "MiB");
    report->metric("setup_s", median(setup_s), "s");
    char line[640];
    std::snprintf(line, sizeof line,
                  "%zu jobs (%zu cold) from %d clients in %.2f s; cold "
                  "times, jobs_per_s and setup_s scaled to the reference "
                  "speed (median reference %.2f ms, nominal %.0f ms); "
                  "rtt_p50_ms: median of %zu warm round trips, unscaled "
                  "(%.4f ms net of poll sleeps); rtt_tail_ms: p%g of %zu "
                  "cold round trips (unscaled %.4f ms); sweep_s: median "
                  "server grid time of the cold jobs (unscaled %.5f s); "
                  "jobs_per_s unscaled "
                  "%.4f; setup_s: median of %d (unscaled %.4f s)",
                  completed, cold_rtt_ms.size(), kClients, raw_elapsed_s,
                  median(reference), kReferenceMs, warm_ms.size(),
                  median(warm_net_ms), t.percentile, cold_rtt_ms.size(),
                  tail(raw_cold_rtt_ms).value, median(raw_cold_wall_s),
                  static_cast<double>(completed) / raw_elapsed_s, kSetups,
                  median(raw_setup_s));
    report->note(line);
    report->count("serve.rejected", rejected, false);
    return;
  }
  stack.reset();
  traced_serve_report(options, jobs, cold, logs, rejected, begin, report);
}

}  // namespace perfbench
