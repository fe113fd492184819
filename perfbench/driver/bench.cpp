#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <random>
#include <sstream>

namespace perfbench {

using t1000::Json;

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  Json m = Json::object();
  m["value"] = Json(value);
  m["unit"] = Json(unit);
  metrics.emplace_back(name, std::move(m));
}

void Report::count(const std::string& name, std::uint64_t value, bool show) {
  if (unledgered.count(name) != 0) {
    if (show) metric(name, static_cast<double>(value), "count");
    return;
  }
  const auto [it, fresh] = counts.emplace(name, value);
  if (!fresh && it->second != value) {
    fail(name + ": layers disagree (" + std::to_string(it->second) + " vs " +
         std::to_string(value) + ")");
  }
  const bool listed =
      std::any_of(metrics.begin(), metrics.end(),
                  [&](const auto& m) { return m.first == name; });
  if (show && !listed) metric(name, static_cast<double>(value), "count");
}

void Report::fail(const std::string& why) {
  correct = false;
  ++failed;
  notes.push_back("FAIL " + why);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double lower_quartile(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = 0.25 * static_cast<double>(values.size() - 1);
  const auto below = static_cast<std::size_t>(pos);
  const std::size_t above = std::min(below + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(below);
  return values[below] + frac * (values[above] - values[below]);
}

Tail tail(std::vector<double> values) {
  Tail out;
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  for (const double p : {99.0, 90.0, 75.0, 50.0}) {
    // Nearest rank: the sample at or above p percent of the data.
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    const std::size_t index = rank == 0 ? 0 : rank - 1;
    if (values.size() - 1 - index >= 10 || p == 50.0) {
      out.value = values[index];
      out.percentile = p;
      return out;
    }
  }
  return out;
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

namespace {
// Keeps the reference workload's results alive past the optimizer.
volatile std::uint64_t reference_sink;
}  // namespace

double reference_ms() {
  std::int64_t start = now_ns();
  std::uint64_t h1 = 1, h2 = 2, h3 = 3, h4 = 4;
  for (std::uint64_t i = 0; i < 30000000; ++i) {
    h1 = h1 * 31 + i;
    h2 ^= h2 >> 3 ^ i;
    h3 += h1 ^ h2;
    h4 = (h4 << 1) ^ h3;
  }
  reference_sink = h1 + h2 + h3 + h4;
  const double hash_ms = ms_between(start, now_ns());

  start = now_ns();
  std::mt19937_64 rng(7);
  std::vector<std::uint32_t> values(1u << 20);
  for (std::uint32_t& v : values) v = static_cast<std::uint32_t>(rng());
  std::sort(values.begin(), values.end());
  reference_sink = values[values.size() / 2];
  const double sort_ms = ms_between(start, now_ns());
  return std::sqrt(hash_ms * sort_ms);
}

double speed_scale(double before_ms, double after_ms) {
  return kReferenceMs / (0.5 * (before_ms + after_ms));
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void check_ledger(const RunOptions& options, Report* report) {
  std::ifstream in(options.ledger_path);
  std::stringstream text;
  text << in.rdbuf();
  Json ledger;
  try {
    ledger = Json::parse(text.str());
  } catch (const std::exception& e) {
    report->fail("ledger " + options.ledger_path + ": " + e.what());
    return;
  }
  const Json* entry = ledger.find(options.workload);
  if (entry == nullptr) {
    report->fail("ledger has no entry for " + options.workload);
    return;
  }
  const Json& expected = entry->at("counts");
  for (const auto& [name, value] : report->counts) {
    const Json* want = expected.find(name);
    if (want == nullptr) {
      report->fail("count " + name + " is missing from the ledger");
    } else if (want->as_uint() != value) {
      report->fail("count " + name + " drifted: ledger " +
                   std::to_string(want->as_uint()) + ", run " +
                   std::to_string(value));
    }
  }
  const Json* want_digest = entry->find("results_digest");
  if (want_digest != nullptr && !report->results_digest.empty() &&
      want_digest->as_string() != report->results_digest) {
    report->fail("results digest drifted: ledger " +
                 want_digest->as_string() + ", run " +
                 report->results_digest);
  }
}

void report_layers(const Decomposition& d, const SpanLog& log, Report* r) {
  constexpr double kMiB = 1024.0 * 1024.0;
  const auto by_trace = log.self_ms();
  const auto layer_ms = [&](const std::string& name) {
    std::vector<double> v;
    for (const auto& [trace, layers] : by_trace) {
      const auto it = layers.find(name);
      if (it != layers.end()) v.push_back(it->second);
    }
    return median(v);
  };
  const auto per = [](double ms, std::uint64_t n) {
    return n == 0 ? 0.0 : ms * 1e6 / static_cast<double>(n);
  };
  r->metric("asmkit.assemble_ms", layer_ms("asmkit.assemble"), "ms");

  r->metric("extinst.analyze_ms", layer_ms("extinst.analyze"), "ms");
  r->metric("extinst.select_ms", layer_ms("extinst.select"), "ms");
  r->metric("extinst.rewrite_ms", layer_ms("extinst.rewrite"), "ms");
  r->count("extinst.configs", d.configs);
  r->count("extinst.apps", d.apps);

  const double record_ms = layer_ms("sim.record");
  r->metric("sim.decode_ms", layer_ms("sim.decode"), "ms");
  r->metric("sim.record_ms", record_ms, "ms");
  r->count("sim.steps", d.steps);
  r->metric("sim.record_ns_per_step", per(record_ms, d.steps), "ns");

  r->metric("analysis.verify_ms", layer_ms("analysis.verify"), "ms");
  r->count("analysis.errors", d.verify_errors);

  const double replay_ms = layer_ms("uarch.replay");
  const double observed_ms = layer_ms("uarch.observed");
  r->metric("uarch.replay_ms", replay_ms, "ms");
  r->count("uarch.cycles", d.cycles);
  r->count("uarch.committed", d.committed);
  r->metric("uarch.ns_per_cycle", per(replay_ms, d.cycles), "ns");
  r->metric("uarch.ns_per_instr", per(replay_ms, d.committed), "ns");
  r->metric("uarch.batch_ms", layer_ms("uarch.batch"), "ms");
  r->count("uarch.batch_lanes", d.batch_lanes);
  r->count("uarch.stall_cycles", d.stall_cycles);
  r->count("uarch.ext_reconfig_cycles", d.ext_reconfig_cycles);
  r->count("uarch.pfu_reconfigs", d.pfu_reconfigs);
  r->metric("uarch.trace_mib", static_cast<double>(d.trace_bytes) / kMiB,
            "MiB");
  r->metric("uarch.decoded_mib",
            static_cast<double>(d.decoded_bytes_max) / kMiB, "MiB");

  r->metric("obs.observed_ms", observed_ms, "ms");
  r->metric("obs.observe_overhead",
            replay_ms > 0.0 ? observed_ms / replay_ms : 0.0, "x");

  r->metric("harness.grid_ms", layer_ms("harness.grid"), "ms");
  r->metric("harness.json_parse_ms", layer_ms("harness.json_parse"), "ms");
}

void report_no_serve(Report* r) {
  for (const char* name : {"serve.submit_ms", "serve.poll_ms",
                           "serve.fetch_ms", "serve.job_wall_ms",
                           "serve.overhead_ms"}) {
    r->metric(name, 0.0, "ms");
  }
  r->metric("serve.polls_per_job", 0.0, "count");
  r->count("serve.rejected", 0);
}

void report_tracing(const SpanLog& log, double span_ns, std::int64_t begin_ns,
                    const RunOptions& options, Report* report) {
  report->metric("trace.overhead_pct",
                 100.0 * span_ns * static_cast<double>(log.spans().size()) /
                     static_cast<double>(now_ns() - begin_ns),
                 "%");
  report->metric("trace.span_ns", span_ns, "ns");
  const std::string path = options.work_dir + "/spans-" + options.workload +
                           "-" + std::to_string(options.seed) + ".jsonl";
  if (log.write_jsonl(path)) {
    report->note(std::to_string(log.spans().size()) + " spans written to " +
                 path);
  } else {
    report->fail("cannot write spans to " + path);
  }
}

}  // namespace perfbench
