// t1000-serve: a long-running simulation service over the experiment grid.
//
//   t1000-serve [--host H] [--port P] [--port-file FILE] [--jobs N]
//               [--cache-dir DIR | --no-cache] [--cache-budget-bytes N]
//               [--queue-limit N] [--max-retained-jobs N]
//               [--run-budget-ms MS]
//               [--max-run-budget-ms MS] [--fail-limit N]
//               [--janitor-ttl-s S] [--janitor-interval-s S]
//               [--http-threads N] [--journal-out FILE]
//               [--journal-max-bytes N]
//   t1000-serve --local FILE [--verify] [--observe] ...
//
// Daemon mode speaks deterministic JSON over HTTP (see
// src/serve/service.hpp for the API): submit a grid request, poll status,
// fetch results byte-identical to the in-process engine, scrape metrics or
// a Perfetto trace of the job timeline. The shared on-disk result cache
// stays bounded (--cache-budget-bytes) and a periodic janitor sweeps crash
// debris, so the process can run indefinitely on a cache directory it
// shares with concurrent CLI tools.
//
// --local FILE short-circuits the daemon entirely: parse the same grid
// request from FILE (or "-" for stdin), run it in-process with the same
// parser and engine wiring, print the results document to stdout, and exit
// nonzero if any run failed. CI uses it as the byte-identity reference for
// daemon-fetched results.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "harness/cache.hpp"
#include "harness/grid.hpp"
#include "harness/options.hpp"
#include "serve/http.hpp"
#include "serve/service.hpp"

using namespace t1000;

namespace {

volatile std::sig_atomic_t g_signal = 0;

void handle_signal(int sig) { g_signal = sig; }

// Reads a whole file (or stdin for "-") into a string; exits on error.
std::string read_request_file(const std::string& path) {
  std::FILE* f = path == "-" ? stdin : std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "t1000-serve: cannot open %s\n", path.c_str());
    std::exit(2);
  }
  std::string text;
  char chunk[4096];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    text.append(chunk, n);
  }
  const bool failed = std::ferror(f) != 0;
  if (f != stdin) std::fclose(f);
  if (failed) {
    std::fprintf(stderr, "t1000-serve: error reading %s\n", path.c_str());
    std::exit(2);
  }
  return text;
}

// Exit code for --local: nonzero when any run did not complete ok, same
// contract as the benches' finish_bench.
int local_exit_code(const Json& doc) {
  for (const Json& run : doc.at("results").items()) {
    if (run.at("status").as_string() != "ok") return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  long port = 0;
  std::string port_file;
  long jobs = 0;
  const CacheDefaults cache = cache_defaults_from_env("t1000-serve");
  std::string cache_dir = cache.dir;
  bool no_cache = false;
  long cache_budget = cache.budget_bytes;
  long queue_limit = 8;
  long max_retained_jobs = 1024;
  double run_budget_ms = 0.0;
  double max_run_budget_ms = 0.0;
  long fail_limit = 0;
  double janitor_ttl_s = 3600.0;
  double janitor_interval_s = 60.0;
  long http_threads = 4;
  std::string journal_out;
  long journal_max_bytes = 64l << 20;
  std::string local_file;
  bool verify = false;
  bool observe = false;

  OptionParser parser("t1000-serve",
                      "simulation grid daemon (JSON over HTTP)");
  parser.add_string("--host", "ADDR", "bind address (default 127.0.0.1)",
                    &host);
  parser.add_int("--port", "P", "listen port; 0 = ephemeral", &port, 0,
                 65535);
  parser.add_string("--port-file", "FILE",
                    "write the bound port here once listening", &port_file);
  parser.add_int("--jobs", "N", "grid worker threads per job; 0 = hardware",
                 &jobs, 0, 4096);
  parser.add_string("--cache-dir", "DIR",
                    "shared on-disk result cache (default $T1000_CACHE_DIR "
                    "or .t1000-cache)",
                    &cache_dir);
  parser.add_flag("--no-cache", "disable the on-disk result cache",
                  &no_cache);
  parser.add_int("--cache-budget-bytes", "N",
                 "evict LRU cache entries beyond this size; 0 = unbounded "
                 "(default $T1000_CACHE_BUDGET_BYTES)",
                 &cache_budget, 0, std::numeric_limits<long>::max());
  parser.add_int("--queue-limit", "N",
                 "reject submissions beyond N queued jobs", &queue_limit, 1,
                 1 << 20);
  parser.add_int("--max-retained-jobs", "N",
                 "keep the newest N finished jobs; older ids answer 410",
                 &max_retained_jobs, 1, 1 << 20);
  parser.add_double("--run-budget-ms", "MS",
                    "default per-run wall-clock budget; 0 = unlimited",
                    &run_budget_ms);
  parser.add_double("--max-run-budget-ms", "MS",
                    "cap per-request budgets at MS; 0 = no cap",
                    &max_run_budget_ms);
  parser.add_int("--fail-limit", "N",
                 "default per-job circuit breaker; 0 = no limit",
                 &fail_limit, 0, std::numeric_limits<long>::max());
  parser.add_double("--janitor-ttl-s", "S",
                    "sweep cache debris older than S seconds", &janitor_ttl_s);
  parser.add_double("--janitor-interval-s", "S",
                    "seconds between janitor sweeps; 0 = never",
                    &janitor_interval_s);
  parser.add_int("--http-threads", "N", "HTTP handler threads",
                 &http_threads, 1, 64);
  parser.add_string("--journal-out", "FILE",
                    "append-only JSONL event journal of every job's trace "
                    "(spans, cache ops, experiment phases)",
                    &journal_out);
  parser.add_int("--journal-max-bytes", "N",
                 "rotate the journal to FILE.1 past this size (default: "
                 "64 MiB)",
                 &journal_max_bytes, 1, std::numeric_limits<long>::max());
  parser.add_string("--local", "FILE",
                    "run one grid request in-process and exit (\"-\" = "
                    "stdin)",
                    &local_file);
  parser.add_flag("--verify", "force static verification on --local runs",
                  &verify);
  parser.add_flag("--observe", "force stall observation on --local runs",
                  &observe);
  parser.parse(argc, argv);

  serve::ServiceOptions options;
  options.jobs = static_cast<int>(jobs);
  options.cache_dir = no_cache ? std::string() : cache_dir;
  options.cache_budget_bytes = static_cast<std::uint64_t>(cache_budget);
  options.default_run_budget_ms = run_budget_ms;
  options.max_run_budget_ms = max_run_budget_ms;
  options.fail_limit = static_cast<std::uint64_t>(fail_limit);
  options.queue_limit = static_cast<std::size_t>(queue_limit);
  options.max_retained_jobs = static_cast<std::size_t>(max_retained_jobs);
  options.journal_path = journal_out;
  options.journal_max_bytes = static_cast<std::uint64_t>(journal_max_bytes);

  if (!local_file.empty()) {
    try {
      Json request = Json::parse(read_request_file(local_file));
      if (verify || observe) {
        // The CLI flags override the request's own options, mirroring how
        // the benches' --verify/--observe force the grid-wide setting.
        Json opts = request.find("options") != nullptr
                        ? *request.find("options")
                        : Json::object();
        if (verify) opts["verify"] = Json(true);
        if (observe) opts["observe"] = Json(true);
        request["options"] = std::move(opts);
      }
      serve::SimService service(options);
      const Json doc = service.run_local(request);
      std::printf("%s\n", doc.dump(2).c_str());
      return local_exit_code(doc);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "t1000-serve: %s\n", e.what());
      return 1;
    }
  }

  serve::SimService service(options);

  serve::HttpServer::Options http_options;
  http_options.host = host;
  http_options.port = static_cast<int>(port);
  http_options.handler_threads = static_cast<int>(http_threads);
  serve::HttpServer server(
      http_options,
      [&service](const serve::HttpRequest& request) {
        return service.handle_http(request);
      });
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "t1000-serve: %s\n", error.c_str());
    return 1;
  }

  std::printf("t1000-serve listening on %s:%d\n", host.c_str(),
              server.port());
  std::fflush(stdout);
  if (!port_file.empty()) {
    if (std::FILE* f = std::fopen(port_file.c_str(), "w")) {
      std::fprintf(f, "%d\n", server.port());
      std::fclose(f);
    } else {
      std::fprintf(stderr, "t1000-serve: cannot write %s\n",
                   port_file.c_str());
      server.stop();
      return 1;
    }
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  // Startup sweep clears debris left by crashed processes before any new
  // work lands; TTL still applies so a concurrent writer's live temp file
  // survives.
  service.sweep_now(janitor_ttl_s);

  auto last_sweep = std::chrono::steady_clock::now();
  while (g_signal == 0 && !service.shutdown_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (janitor_interval_s > 0) {
      const auto now = std::chrono::steady_clock::now();
      if (std::chrono::duration<double>(now - last_sweep).count() >=
          janitor_interval_s) {
        service.sweep_now(janitor_ttl_s);
        last_sweep = now;
      }
    }
  }

  std::printf("t1000-serve shutting down%s\n",
              g_signal != 0 ? " (signal)" : "");
  server.stop();
  return 0;
}
