// Shared pieces of the benchmark driver: run options, the metric report
// every workload fills, order statistics, and the exact-count ledger.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "decompose.hpp"
#include "harness/json.hpp"
#include "spans.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string ledger_path;  // expected counts, checked exactly
  std::string work_dir;     // scratch space inside the checkout
  std::int64_t start_ns = 0;  // process start, for the first set-up
};

// What one run reports. `metrics` keeps insertion order; `notes` are the
// human-readable lines (sample counts, bases) printed before the result.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::pair<std::string, t1000::Json>> metrics;
  std::map<std::string, std::uint64_t> counts;  // exact, checked vs ledger
  // Counts that legitimately vary with the seed or the clock on this
  // workload: count() reports them as plain metrics, outside the ledger.
  std::set<std::string> unledgered;
  std::string results_digest;  // sweeps: hash of every run's results entry
  std::vector<std::string> notes;

  void metric(const std::string& name, double value, const std::string& unit);
  // Records an exact count, and reports it as a metric when `show`. Two
  // layers reporting one count must agree; a disagreement fails the run.
  void count(const std::string& name, std::uint64_t value, bool show = true);
  // Records a correctness failure: the run is no longer correct and one
  // more operation failed.
  void fail(const std::string& why);
  void note(const std::string& line) { notes.push_back(line); }
};

double median(std::vector<double> values);
// The 25th percentile, interpolated between the two nearest samples.
double lower_quartile(std::vector<double> values);

// The highest of the 99th, 90th, 75th and 50th percentiles that has at
// least ten samples above it (nearest rank).
struct Tail {
  double value = 0.0;
  double percentile = 50.0;
};
Tail tail(std::vector<double> values);

double geomean(const std::vector<double>& values);

// The host's speed, as the time of a fixed CPU workload that shares no
// code with the program: integer hash chains and a sort of 1 Mi seeded
// values, ~130 ms in all. It returns the geometric mean of the two parts'
// milliseconds, which is about kReferenceMs on the 4-vCPU host the
// benchmark was built on when that host runs at full speed.
constexpr double kReferenceMs = 60.0;
double reference_ms();
// The factor that scales a time taken between two reference timings to
// the reference speed: kReferenceMs over their mean.
double speed_scale(double before_ms, double after_ms);
double peak_rss_mib();

// Checks every count in `report` that the ledger lists for `workload`;
// a mismatch or a missing ledger entry fails the run.
void check_ledger(const RunOptions& options, Report* report);

// Reports the decomposition's per-layer metrics. A layer's time is the
// median, over the traces (sweeps or requests) that have spans of it, of
// the layer's self time in the trace; `d` holds the counts of one sweep or
// one cold request.
void report_layers(const Decomposition& d, const SpanLog& log,
                   Report* report);

// Reports the serve-layer metrics as absent (0) for workloads that never
// touch the HTTP surface.
void report_no_serve(Report* report);

// Reports the tracing overhead — spans recorded times the measured cost
// of one span (`span_ns`), as a share of the traced wall time since
// `begin_ns` — and writes the spans as JSON lines under the work
// directory.
void report_tracing(const SpanLog& log, double span_ns, std::int64_t begin_ns,
                    const RunOptions& options, Report* report);

// Workload entry points (sweeps.cpp, serve_mix.cpp).
void run_paper_sweep(const RunOptions& options, Report* report);
void run_serve_mix(const RunOptions& options, Report* report);

}  // namespace perfbench
