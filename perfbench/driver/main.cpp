// t1000-perfbench: the repo's benchmark driver.
//
//   t1000-perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   --ledger FILE --work-dir DIR
//
// Runs one workload (paper_sweep or serve_mix) in this
// process and prints, as its last stdout line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones, timed with tracing off; with --trace 1 they are
// the per-layer ones from a separate traced run. Every run checks its
// outputs (grid results against each other and against a layer-by-layer
// decomposition or run_local, counts against the ledger) and counts each
// mismatch as a failed operation. perfbench/run.py builds and runs this.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"
#include "spans.hpp"

namespace {

// Taken during static initialization: the set-up time of the first
// set-up counts from here.
const std::int64_t kProcessStart = perfbench::now_ns();

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "t1000-perfbench: %s\n"
               "usage: t1000-perfbench --workload paper_sweep|serve_mix "
               "--seed N --seconds S --trace 0|1 --ledger FILE "
               "--work-dir DIR\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.start_ns = kProcessStart;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || options.seconds <= 0) {
        usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      options.trace = value[0] == '1';
    } else if (flag == "--ledger") {
      options.ledger_path = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.ledger_path.empty() || options.work_dir.empty()) {
    usage("--ledger and --work-dir are required");
  }

  perfbench::Report report;
  try {
    if (options.workload == "paper_sweep") {
      perfbench::run_paper_sweep(options, &report);
    } else if (options.workload == "serve_mix") {
      perfbench::run_serve_mix(options, &report);
    } else {
      usage(("unknown workload '" + options.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "t1000-perfbench: %s: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }
  perfbench::check_ledger(options, &report);
  {
    // What this run would record in the ledger; see perfbench/README.md
    // for when to update it.
    t1000::Json counts = t1000::Json::object();
    for (const auto& [name, value] : report.counts) {
      counts[name] = t1000::Json(value);
    }
    t1000::Json entry = t1000::Json::object();
    entry["counts"] = std::move(counts);
    if (!report.results_digest.empty()) {
      entry["results_digest"] = t1000::Json(report.results_digest);
    }
    std::fprintf(stderr, "ledger entry for %s: %s\n",
                 options.workload.c_str(), entry.dump().c_str());
  }

  std::printf("workload %s, seed %llu, trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0);
  for (const std::string& line : report.notes) {
    std::printf("  %s\n", line.c_str());
  }
  t1000::Json metrics = t1000::Json::object();
  for (const auto& [name, value] : report.metrics) metrics[name] = value;
  t1000::Json result = t1000::Json::object();
  result["correct"] = t1000::Json(report.correct);
  result["attempted"] = t1000::Json(report.attempted);
  result["failed"] = t1000::Json(report.failed);
  result["metrics"] = std::move(metrics);
  std::printf("%s\n", result.dump().c_str());
  return 0;
}
