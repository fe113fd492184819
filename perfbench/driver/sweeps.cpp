// paper_sweep: cold ExperimentGrid sweeps over the eight paper workloads,
// one fresh grid and one in-memory ResultCache per sweep, so every sweep
// analyzes, records and replays from scratch.
//
// The sweep is the union of the Figure 2 and Figure 6 grids on one worker:
// nearly every run records its own trace and few simulated cycles are
// idle, so analysis, selection, rewrite, recording and per-instruction
// replay all carry weight.
#include <algorithm>
#include <cstdio>
#include <random>
#include <string>

#include "bench.hpp"
#include "decompose.hpp"
#include "harness/grid.hpp"
#include "harness/serialize.hpp"
#include "spans.hpp"

namespace perfbench {

using namespace t1000;

namespace {

// Set-ups per run; set-up time is reported as their median.
constexpr int kSetups = 5;
// The selective 2-PFU label whose speedup over the baseline the run
// reports as speedup_sel2_geomean.
const char* const kSel2Label = "sel2@10";

std::vector<RunSpec> paper_specs() {
  std::vector<RunSpec> specs;
  for (const Workload& w : all_workloads()) {
    specs.push_back(baseline_spec(w.name));
    specs.push_back(
        greedy_spec(w.name, "greedy_unl@0", PfuConfig::kUnlimited, 0));
    specs.push_back(greedy_spec(w.name, "greedy2@10", 2, 10));
    specs.push_back(selective_spec(w.name, kSel2Label, 2, 10));
    specs.push_back(selective_spec(w.name, "sel4@10", 4, 10));
    specs.push_back(
        selective_spec(w.name, "sel_unl@10", PfuConfig::kUnlimited, 10));
  }
  return specs;
}

GridResult run_sweep(const std::vector<RunSpec>& specs) {
  ExperimentGrid grid;
  grid.add_workloads(all_workloads());
  for (const RunSpec& spec : specs) grid.add(spec);
  ResultCache cache;  // in-memory only, fresh per sweep: every run is cold
  GridOptions options;
  options.jobs = 1;
  options.cache = &cache;
  return grid.run(options);
}

// Per-spec results in a seed-independent order, for the exact digest.
std::map<std::string, std::string> results_by_key(const GridResult& res) {
  std::map<std::string, std::string> out;
  const Json doc = res.results_json();
  for (const Json& entry : doc.items()) {
    const Json& spec = entry.at("spec");
    out[spec.at("workload").as_string() + "/" + spec.at("label").as_string()] =
        entry.dump();
  }
  return out;
}

std::string digest(const std::map<std::string, std::string>& results) {
  std::uint64_t h = fnv1a64("");
  for (const auto& [key, text] : results) {
    h = fnv1a64(key, h);
    h = fnv1a64(text, h);
  }
  return to_hex(h);
}

// Checks one sweep's outcome and returns its per-spec results. Every run
// must be ok, and every sweep of a run must reproduce the first exactly.
std::map<std::string, std::string> check_sweep(
    const GridResult& res, const std::map<std::string, std::string>* first,
    Report* report) {
  report->attempted += res.runs().size();
  for (const RunResult& r : res.runs()) {
    if (!r.ok()) {
      report->fail(r.spec.workload + "/" + r.spec.label + ": " + r.error);
    }
  }
  std::map<std::string, std::string> results = results_by_key(res);
  if (first != nullptr && results != *first) {
    report->fail("sweep results differ from the run's first sweep");
  }
  return results;
}

// Counts every sweep must reproduce exactly: the simulated totals and the
// engine's trace/batch/cache tallies.
void engine_counts(const GridResult& res, Report* report, bool show) {
  std::uint64_t cycles = 0;
  std::uint64_t committed = 0;
  std::uint64_t reconfigs = 0;
  for (const RunResult& r : res.runs()) {
    cycles += r.outcome.stats.cycles;
    committed += r.outcome.stats.committed;
    reconfigs += r.outcome.stats.pfu.reconfigurations;
  }
  const EngineStats& e = res.engine();
  report->count("uarch.cycles", cycles, show);
  report->count("uarch.committed", committed, show);
  report->count("uarch.pfu_reconfigs", reconfigs, show);
  report->count("harness.traces_recorded", e.traces_recorded, show);
  report->count("harness.trace_replays", e.trace_replays, show);
  report->count("harness.batches", e.batches, show);
  report->count("harness.batched_runs", e.batched_runs, show);
  report->count("harness.cache_hits", e.cache.hits(), show);
  report->count("harness.cache_misses", e.cache.misses, show);
  report->count("harness.cache_stores", e.cache.stores, show);
  report->count("harness.cache_size_evicted", e.cache.size_evicted, show);
}

double sel2_geomean(const GridResult& res) {
  std::vector<double> ratios;
  for (const Workload& w : all_workloads()) {
    ratios.push_back(speedup(res.stats(w.name, "baseline"),
                             res.stats(w.name, kSel2Label)));
  }
  return geomean(ratios);
}

void run_untraced(const std::vector<RunSpec>& specs, const RunOptions& options,
                  Report* report) {
  // The host slows down by up to a half in phases of seconds to minutes,
  // and a whole run can fall in one. Every set-up and sweep is therefore
  // scaled by the host's speed while it ran (speed_scale): the reference
  // is timed after each of them, and the one before a sweep is the one
  // after the set-up or sweep that preceded it. The reference shares no
  // code with the program, so a faster program still shows.
  //
  // Set-up: assemble the workloads and run one discarded warm-up sweep.
  // The first set-up is timed from process start.
  std::vector<double> raw_setup_s;
  std::vector<double> setup_s;
  std::vector<double> reference;
  std::map<std::string, std::string> first;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t start = i == 0 ? options.start_ns : now_ns();
    for (const Workload& w : all_workloads()) workload_program(w);
    const GridResult warm = run_sweep(specs);
    first = check_sweep(warm, i == 0 ? nullptr : &first, report);
    raw_setup_s.push_back(ms_between(start, now_ns()) / 1000.0);
    reference.push_back(reference_ms());
    const double before =
        i == 0 ? reference.back() : reference[reference.size() - 2];
    setup_s.push_back(raw_setup_s.back() *
                      speed_scale(before, reference.back()));
  }

  std::vector<double> raw_sweep_s;
  std::vector<double> sweep_s;
  std::map<std::string, std::vector<double>> workload_ms;
  double geo = 0.0;
  const std::int64_t begin = now_ns();
  while (sweep_s.empty() ||
         ms_between(begin, now_ns()) < options.seconds * 1000.0) {
    const std::int64_t start = now_ns();
    const GridResult res = run_sweep(specs);
    const double raw_s = ms_between(start, now_ns()) / 1000.0;
    reference.push_back(reference_ms());
    const double scale =
        speed_scale(reference[reference.size() - 2], reference.back());
    raw_sweep_s.push_back(raw_s);
    sweep_s.push_back(raw_s * scale);
    check_sweep(res, &first, report);
    // A workload's grid time in this sweep is the sum of its runs' wall
    // times. The seed reorders runs inside a workload, which moves costs
    // (the first run pays the analysis) between runs but not between
    // workloads.
    std::map<std::string, double> sums;
    for (const RunResult& r : res.runs()) sums[r.spec.workload] += r.wall_ms;
    for (const auto& [name, ms] : sums) workload_ms[name].push_back(ms * scale);
    if (sweep_s.size() == 1) {
      engine_counts(res, report, false);
      report->results_digest = digest(first);
      geo = sel2_geomean(res);
    }
  }
  // Each workload's typical grid time is its median over the sweeps; the
  // round-trip metrics are the median and the slowest of those.
  std::vector<double> typical_ms;
  for (const auto& [name, ms] : workload_ms) typical_ms.push_back(median(ms));

  // The lower quartile rather than the median: within a run the sweeps
  // still fall into a fast and a slow group, and the lower quartile stays
  // with the fast group more often.
  const double sweep = lower_quartile(sweep_s);
  report->metric("sweep_s", sweep, "s");
  report->metric("rtt_p50_ms", median(typical_ms), "ms");
  report->metric("rtt_tail_ms",
                 *std::max_element(typical_ms.begin(), typical_ms.end()), "ms");
  report->metric("jobs_per_s", static_cast<double>(specs.size()) / sweep,
                 "1/s");
  report->metric("speedup_sel2_geomean", geo, "x");
  report->metric("peak_rss_mib", peak_rss_mib(), "MiB");
  report->metric("setup_s", median(setup_s), "s");
  char line[512];
  std::snprintf(line, sizeof line,
                "times scaled to the reference speed (median reference "
                "%.2f ms, nominal %.0f ms); sweep_s: lower quartile of %zu "
                "sweeps of %zu runs (unscaled %.4f s); rtt_p50_ms, "
                "rtt_tail_ms: median and slowest of the %zu workloads' "
                "median grid times; setup_s: median of %d (unscaled %.4f s)",
                median(reference), kReferenceMs, sweep_s.size(), specs.size(),
                lower_quartile(raw_sweep_s), typical_ms.size(), kSetups,
                median(raw_setup_s));
  report->note(line);
  std::string samples = "sweeps (s, unscaled):";
  for (const double s : raw_sweep_s) samples += " " + std::to_string(s);
  samples += "; set-ups (s, unscaled):";
  for (const double s : raw_setup_s) samples += " " + std::to_string(s);
  samples += "; reference (ms):";
  for (const double ms : reference) samples += " " + std::to_string(ms);
  report->note(samples);
}

void run_traced(const std::vector<RunSpec>& specs, const RunOptions& options,
                Report* report) {
  const std::map<std::string, std::string> warm =
      check_sweep(run_sweep(specs), nullptr, report);
  const double span_ns = calibrate_span_ns(100000);

  SpanLog log(true);
  Decomposition first;
  std::uint64_t sweeps = 0;
  const std::int64_t begin = now_ns();
  while (sweeps == 0 ||
         ms_between(begin, now_ns()) < options.seconds * 1000.0) {
    const std::uint64_t trace = ++sweeps;
    log.set_trace(trace);
    Decomposition d;
    {
      const Span root(log, "sweep");
      GridResult res = [&] {
        const Span span(log, "harness.grid");
        return run_sweep(specs);
      }();
      check_sweep(res, &warm, report);
      const std::string body = res.to_json().dump();
      {
        const Span span(log, "harness.json_parse");
        Json::parse(body);
      }
      // The grid batches by default; the decomposition times the same
      // shared-trace groups as batches too.
      d = decompose(specs, {.verify = false, .batch = true}, log);
      engine_counts(res, report, trace == 1);
      // The decomposition must reproduce the grid's statistics exactly.
      const Json doc = res.results_json();
      for (const Json& entry : doc.items()) {
        const Json& spec = entry.at("spec");
        const std::string key = spec.at("workload").as_string() + "/" +
                                spec.at("label").as_string();
        const auto it = d.stats.find(key);
        if (it == d.stats.end() ||
            it->second != entry.at("outcome").at("stats").dump()) {
          d.mismatches.push_back(key + ": grid and decomposition disagree");
        }
      }
    }
    report->attempted += specs.size();
    for (const std::string& m : d.mismatches) report->fail(m);
    if (trace == 1) first = std::move(d);
  }

  report_layers(first, log, report);
  const std::uint64_t lookups = report->counts["harness.cache_hits"] +
                                report->counts["harness.cache_misses"];
  report->metric("harness.cache_hit_ratio",
                 lookups == 0 ? 0.0
                              : static_cast<double>(
                                    report->counts["harness.cache_hits"]) /
                                    static_cast<double>(lookups),
                 "ratio");
  report->count("harness.cache_lookups", lookups);
  report_no_serve(report);
  report->note("per-layer times: median self time per sweep over " +
               std::to_string(sweeps) + " traced sweeps");
  report_tracing(log, span_ns, begin, options, report);
}

}  // namespace

// The seed sets the order specs are added to the grid: it shuffles each
// workload's specs behind the workload's baseline. The statistics, counts
// and results must not depend on it, and the timings are taken per
// workload, so they do not either.
void run_paper_sweep(const RunOptions& options, Report* report) {
  std::vector<RunSpec> specs = paper_specs();
  std::mt19937_64 rng(options.seed);
  auto block = specs.begin();
  while (block != specs.end()) {
    const auto end = std::find_if(block, specs.end(), [&](const RunSpec& s) {
      return s.workload != block->workload;
    });
    std::shuffle(block + 1, end, rng);  // paper_specs puts the baseline first
    block = end;
  }
  if (options.trace) {
    run_traced(specs, options, report);
  } else {
    run_untraced(specs, options, report);
  }
}

}  // namespace perfbench
