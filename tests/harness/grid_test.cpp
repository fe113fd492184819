#include "harness/grid.hpp"

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <chrono>
#include <condition_variable>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <map>
#include <set>

#include "harness/cache.hpp"
#include "harness/serialize.hpp"
#include "obs/journal.hpp"
#include "sim/executor.hpp"

namespace t1000 {
namespace {

namespace fs = std::filesystem;

// A fresh, empty scratch directory that cleans up after itself.
class TempDir {
 public:
  explicit TempDir(const char* tag)
      : path_(fs::temp_directory_path() /
              (std::string("t1000-grid-test-") + tag)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string str() const { return path_.string(); }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

// Small but non-trivial grid: two workloads, baseline + both selectors.
ExperimentGrid small_grid() {
  ExperimentGrid grid;
  grid.add_workload(*find_workload("gsm_dec"));
  grid.add_workload(*find_workload("g721_dec"));
  for (const char* name : {"gsm_dec", "g721_dec"}) {
    grid.add(baseline_spec(name));
    grid.add(greedy_spec(name, "greedy", PfuConfig::kUnlimited, 0));
    grid.add(selective_spec(name, "2pfu", 2, 10));
  }
  return grid;
}

TEST(Grid, ParallelRunMatchesSerialByteForByte) {
  const ExperimentGrid grid = small_grid();
  GridOptions serial;
  serial.jobs = 1;
  GridOptions parallel;
  parallel.jobs = 4;

  const GridResult a = grid.run(serial);
  const GridResult b = grid.run(parallel);

  EXPECT_EQ(a.engine().jobs, 1);
  EXPECT_EQ(b.engine().jobs, 4);
  // The deterministic results section must be byte-identical regardless of
  // worker count or scheduling order.
  EXPECT_EQ(a.results_json().dump(), b.results_json().dump());
  EXPECT_EQ(a.results_json().dump(2), b.results_json().dump(2));
}

TEST(Grid, ResultsAreInSpecOrder) {
  const ExperimentGrid grid = small_grid();
  GridOptions options;
  options.jobs = 4;
  const GridResult res = grid.run(options);
  ASSERT_EQ(res.runs().size(), 6u);
  EXPECT_EQ(res.runs()[0].spec.workload, "gsm_dec");
  EXPECT_EQ(res.runs()[0].spec.label, "baseline");
  EXPECT_EQ(res.runs()[5].spec.workload, "g721_dec");
  EXPECT_EQ(res.runs()[5].spec.label, "2pfu");
  // Lookup helpers agree with positional access.
  EXPECT_EQ(res.stats("g721_dec", "2pfu").cycles,
            res.runs()[5].outcome.stats.cycles);
  EXPECT_THROW(res.at("g721_dec", "nope"), std::out_of_range);
  EXPECT_THROW(res.at("nope", "baseline"), std::out_of_range);
}

TEST(Grid, SecondRunIsAllCacheHitsWithIdenticalOutcomes) {
  const TempDir dir("cache");
  const ExperimentGrid grid = small_grid();
  GridOptions options;
  options.jobs = 1;
  options.cache_dir = dir.str();

  const GridResult first = grid.run(options);
  EXPECT_EQ(first.engine().cache.misses, grid.size());
  EXPECT_EQ(first.engine().cache.hits(), 0u);
  EXPECT_EQ(first.engine().cache.stores, grid.size());
  EXPECT_EQ(first.engine().simulated, grid.size());

  // A brand-new run against the same directory: zero simulations, 100%
  // hits, byte-identical results.
  const GridResult second = grid.run(options);
  EXPECT_EQ(second.engine().cache.hits(), second.engine().runs);
  EXPECT_EQ(second.engine().cache.misses, 0u);
  EXPECT_EQ(second.engine().simulated, 0u);
  for (const RunResult& r : second.runs()) EXPECT_TRUE(r.cache_hit);
  EXPECT_EQ(first.results_json().dump(), second.results_json().dump());
}

TEST(Grid, VerifyModeRunsCleanWithoutPerturbingResults) {
  const ExperimentGrid grid = small_grid();
  GridOptions plain;
  plain.jobs = 1;
  GridOptions verified = plain;
  verified.verify = true;

  const GridResult a = grid.run(plain);
  const GridResult b = grid.run(verified);
  ASSERT_EQ(b.runs().size(), a.runs().size());
  for (std::size_t i = 0; i < a.runs().size(); ++i) {
    // Every bundled workload/selector pair verifies clean...
    EXPECT_EQ(b.runs()[i].status, RunStatus::kOk);
    // ...the flag is stamped onto the spec (and thus the results JSON)...
    EXPECT_TRUE(b.runs()[i].spec.verify);
    EXPECT_FALSE(a.runs()[i].spec.verify);
    // ...and pre-flight verification never changes what gets simulated.
    EXPECT_EQ(to_json(b.runs()[i].outcome.stats).dump(),
              to_json(a.runs()[i].outcome.stats).dump());
  }
  const Json rj = b.results_json();
  EXPECT_TRUE(rj.at(0).at("spec").at("verify").as_bool());
}

TEST(Grid, VerifiedRunsUseDistinctCacheEntries) {
  const TempDir dir("verify-cache");
  const ExperimentGrid grid = small_grid();
  GridOptions options;
  options.jobs = 1;
  options.cache_dir = dir.str();
  const GridResult plain = grid.run(options);
  EXPECT_EQ(plain.engine().cache.stores, grid.size());

  // The verify flag is part of the cache identity: a hit under --verify
  // must mean the entry was produced by a verified run, so the plain
  // entries above cannot satisfy it.
  options.verify = true;
  const GridResult first = grid.run(options);
  EXPECT_EQ(first.engine().cache.hits(), 0u);
  EXPECT_EQ(first.engine().cache.misses, grid.size());

  const GridResult second = grid.run(options);
  EXPECT_EQ(second.engine().cache.hits(), second.engine().runs);
  EXPECT_EQ(second.engine().simulated, 0u);
}

TEST(Grid, ObserveStampsStallBreakdownOntoEveryOutcome) {
  const ExperimentGrid grid = small_grid();
  GridOptions plain;
  plain.jobs = 2;
  GridOptions observed = plain;
  observed.observe = true;

  const GridResult a = grid.run(plain);
  const GridResult b = grid.run(observed);
  ASSERT_EQ(b.runs().size(), a.runs().size());
  StallBreakdown total;
  for (std::size_t i = 0; i < b.runs().size(); ++i) {
    const RunResult& r = b.runs()[i];
    EXPECT_EQ(r.status, RunStatus::kOk);
    // The flag is stamped onto the spec (and thus the results JSON)...
    EXPECT_TRUE(r.spec.observe);
    EXPECT_FALSE(a.runs()[i].spec.observe);
    // ...every outcome carries a breakdown satisfying the invariant...
    EXPECT_TRUE(r.outcome.observed);
    EXPECT_FALSE(a.runs()[i].outcome.observed);
    EXPECT_EQ(r.outcome.stalls.cycles, r.outcome.stats.cycles);
    EXPECT_EQ(r.outcome.stalls.cause_cycles(), r.outcome.stalls.stall_cycles());
    // ...and observation never changes what gets simulated.
    EXPECT_EQ(to_json(r.outcome.stats).dump(),
              to_json(a.runs()[i].outcome.stats).dump());
    total.accumulate(r.outcome.stalls);
  }
  // Engine-level aggregation is the element-wise sum over observed runs.
  EXPECT_EQ(b.engine().observed, grid.size());
  EXPECT_EQ(a.engine().observed, 0u);
  EXPECT_EQ(to_json(b.engine().stalls).dump(), to_json(total).dump());

  // The breakdown reaches the results and engine JSON sections.
  const Json rj = b.results_json();
  ASSERT_NE(rj.at(0).at("outcome").find("stalls"), nullptr);
  EXPECT_EQ(rj.at(0).at("outcome").at("stalls").at("cycles").as_uint(),
            b.runs()[0].outcome.stats.cycles);
  EXPECT_EQ(a.results_json().at(0).at("outcome").find("stalls"), nullptr);
  const Json ej = b.to_json().at("engine");
  EXPECT_EQ(ej.at("observed").as_uint(), grid.size());
  ASSERT_NE(ej.find("stalls"), nullptr);
  EXPECT_NE(b.engine_summary().find("stalls:"), std::string::npos);
}

TEST(Grid, ObservedRunsUseDistinctCacheEntriesAndRoundTripStalls) {
  const TempDir dir("observe-cache");
  const ExperimentGrid grid = small_grid();
  GridOptions options;
  options.jobs = 1;
  options.cache_dir = dir.str();
  options.observe = true;

  const GridResult first = grid.run(options);
  EXPECT_EQ(first.engine().cache.misses, grid.size());

  // A cache hit must reproduce the breakdown, not just the stats: the
  // stalls member round-trips through the disk entry.
  const GridResult second = grid.run(options);
  EXPECT_EQ(second.engine().cache.hits(), second.engine().runs);
  EXPECT_EQ(second.engine().simulated, 0u);
  EXPECT_EQ(second.engine().observed, grid.size());
  for (std::size_t i = 0; i < second.runs().size(); ++i) {
    EXPECT_TRUE(second.runs()[i].cache_hit);
    EXPECT_TRUE(second.runs()[i].outcome.observed);
    EXPECT_EQ(to_json(second.runs()[i].outcome.stalls).dump(),
              to_json(first.runs()[i].outcome.stalls).dump());
  }
  EXPECT_EQ(first.results_json().dump(), second.results_json().dump());

  // Observe is part of the cache identity: an unobserved run cannot be
  // satisfied by the observed entries above (it would otherwise silently
  // return payload the spec never asked for, or vice versa).
  options.observe = false;
  const GridResult unobserved = grid.run(options);
  EXPECT_EQ(unobserved.engine().cache.hits(), 0u);
  EXPECT_EQ(unobserved.engine().cache.misses, grid.size());
}

TEST(Grid, MetricsRegistryObservesGridExecution) {
  const TempDir dir("metrics");
  obs::MetricsRegistry metrics;
  const ExperimentGrid grid = small_grid();
  GridOptions options;
  options.jobs = 2;
  options.cache_dir = dir.str();
  options.metrics = &metrics;

  grid.run(options);
  EXPECT_EQ(metrics.counter("grid.runs")->value(), grid.size());
  EXPECT_EQ(metrics.counter("grid.simulated")->value(), grid.size());
  EXPECT_EQ(metrics.counter("grid.cache_hits")->value(), 0u);
  EXPECT_EQ(metrics.counter("grid.runs_incomplete")->value(), 0u);
  EXPECT_EQ(metrics.histogram("grid.run_wall_ms",
                              {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000,
                               2000, 5000, 10000})
                ->count(),
            grid.size());

  // A long-lived registry accumulates across runs: the warm pass adds
  // all-hit traffic onto the same instruments.
  grid.run(options);
  EXPECT_EQ(metrics.counter("grid.runs")->value(), 2 * grid.size());
  EXPECT_EQ(metrics.counter("grid.simulated")->value(), grid.size());
  EXPECT_EQ(metrics.counter("grid.cache_hits")->value(), grid.size());
  const Json j = metrics.to_json();
  EXPECT_EQ(j.at("grid.runs").at("type").as_string(), "counter");
  EXPECT_EQ(j.at("grid.run_wall_ms").at("type").as_string(), "histogram");
  // A run's wall time is the histogram alone; no second recorder.
  EXPECT_EQ(j.find("grid.run_wall"), nullptr);
}

TEST(Grid, MemoryCacheDeduplicatesRepeatedSpecsInOneRun) {
  ExperimentGrid grid;
  grid.add_workload(*find_workload("gsm_dec"));
  grid.add(baseline_spec("gsm_dec", "a"));
  grid.add(baseline_spec("gsm_dec", "b"));  // same key: label is excluded
  GridOptions options;
  options.jobs = 1;  // serial, so the second lookup sees the first store
  const GridResult res = grid.run(options);
  EXPECT_EQ(res.engine().simulated, 1u);
  EXPECT_EQ(res.engine().cache.memory_hits, 1u);
  EXPECT_EQ(res.stats("gsm_dec", "a").cycles,
            res.stats("gsm_dec", "b").cycles);
}

// A grid whose specs form real batch groups: per workload and selector,
// several machine configurations share one preparation (same policy), so
// the batching engine can time them as lanes of one sweep.
ExperimentGrid batchable_grid() {
  ExperimentGrid grid;
  grid.add_workload(*find_workload("gsm_dec"));
  grid.add_workload(*find_workload("g721_dec"));
  for (const char* name : {"gsm_dec", "g721_dec"}) {
    grid.add(baseline_spec(name));
    for (const int latency : {0, 10, 100}) {
      grid.add(greedy_spec(name, "greedy-lat" + std::to_string(latency), 2,
                           latency));
      grid.add(selective_spec(name, "2pfu-lat" + std::to_string(latency), 2,
                              latency));
    }
  }
  return grid;
}

TEST(Grid, JournalRecordsRunCacheAndPhaseSpansUnderOneTrace) {
  const ExperimentGrid grid = small_grid();
  obs::Journal journal;
  GridOptions options;
  options.jobs = 2;
  options.journal = &journal;
  options.trace = obs::TraceContext{journal.new_id(), 0};
  const GridResult traced = grid.run(options);
  const GridResult plain = grid.run(GridOptions{});
  // Journaling must not perturb the deterministic results section.
  EXPECT_EQ(traced.results_json().dump(), plain.results_json().dump());

  const std::vector<obs::JournalEvent> events =
      journal.poll(0, options.trace.trace_id, std::chrono::milliseconds(0));
  ASSERT_FALSE(events.empty());

  std::map<std::uint64_t, std::string> open;  // span_id -> name
  std::set<std::uint64_t> run_ids;
  std::size_t run_spans = 0;
  std::size_t phase_spans = 0;
  std::set<std::string> phases;
  std::size_t lookups = 0;
  std::size_t stores = 0;
  for (const obs::JournalEvent& ev : events) {
    EXPECT_EQ(ev.trace_id, options.trace.trace_id);
    if (ev.kind == 'B') {
      open.emplace(ev.span_id, ev.name);
      if (ev.name == "run") {
        ++run_spans;
        run_ids.insert(ev.span_id);
        EXPECT_FALSE(ev.attrs.at("workload").as_string().empty());
        EXPECT_FALSE(ev.attrs.at("label").as_string().empty());
      } else if (ev.name.rfind("phase.", 0) == 0) {
        ++phase_spans;
        phases.insert(ev.name);
        // Every phase span parents under the run span that produced it.
        EXPECT_EQ(run_ids.count(ev.parent_id), 1u) << ev.name;
      }
    } else if (ev.kind == 'E') {
      const auto it = open.find(ev.span_id);
      ASSERT_NE(it, open.end()) << "end without begin: " << ev.name;
      EXPECT_EQ(it->second, ev.name);
      open.erase(it);
    } else if (ev.kind == 'i') {
      if (ev.name == "cache.lookup") {
        ++lookups;
        EXPECT_TRUE(ev.attrs.at("hit").is_bool());
      } else if (ev.name == "cache.store") {
        ++stores;
      }
    }
  }
  EXPECT_TRUE(open.empty());  // every begun span ended
  EXPECT_EQ(run_spans, grid.size());
  // A fresh in-memory cache: every distinct spec misses once, stores once.
  EXPECT_EQ(lookups, grid.size());
  EXPECT_EQ(stores, grid.size());
  EXPECT_GT(phase_spans, 0u);
  EXPECT_EQ(phases.count("phase.decode"), 1u);
  EXPECT_EQ(phases.count("phase.record"), 1u);
  EXPECT_EQ(phases.count("phase.replay"), 1u);
}

TEST(Grid, JournalEmitsBatchSpansForGroupedLanes) {
  const ExperimentGrid grid = batchable_grid();
  obs::Journal journal;
  GridOptions options;
  options.journal = &journal;
  options.trace = obs::TraceContext{journal.new_id(), 0};
  const GridResult res = grid.run(options);
  ASSERT_EQ(res.engine().batches, 4u);
  ASSERT_EQ(res.engine().batched_runs, 12u);

  const std::vector<obs::JournalEvent> events =
      journal.poll(0, options.trace.trace_id, std::chrono::milliseconds(0));
  std::size_t batch_begins = 0;
  std::size_t batch_ends = 0;
  std::size_t run_spans = 0;
  for (const obs::JournalEvent& ev : events) {
    if (ev.name == "batch" && ev.kind == 'B') {
      ++batch_begins;
      // All three lanes of each group missed the fresh cache together.
      EXPECT_EQ(ev.attrs.at("lanes").as_uint(), 3u);
      EXPECT_FALSE(ev.attrs.at("workload").as_string().empty());
    } else if (ev.name == "batch" && ev.kind == 'E') {
      ++batch_ends;
    } else if (ev.name == "run" && ev.kind == 'B') {
      ++run_spans;
    }
  }
  EXPECT_EQ(batch_begins, 4u);
  EXPECT_EQ(batch_ends, 4u);
  EXPECT_EQ(run_spans, 2u);  // only the baseline singletons run solo
}

TEST(Grid, JournalStaysSilentWithoutAnActiveTrace) {
  const ExperimentGrid grid = small_grid();
  obs::Journal journal;
  GridOptions options;
  options.journal = &journal;  // wired, but no trace installed
  grid.run(options);
  EXPECT_EQ(journal.events_appended(), 0u);
}

TEST(Grid, BatchedRunMatchesUnbatchedByteForByte) {
  const ExperimentGrid grid = batchable_grid();
  GridOptions batched;
  batched.jobs = 1;
  GridOptions unbatched = batched;
  unbatched.batch = false;

  const GridResult a = grid.run(batched);
  const GridResult b = grid.run(unbatched);

  // Batching engaged on one side only...
  EXPECT_GT(a.engine().batches, 0u);
  EXPECT_GT(a.engine().batched_runs, a.engine().batches);
  EXPECT_EQ(b.engine().batches, 0u);
  EXPECT_EQ(b.engine().batched_runs, 0u);
  // ...with the same amount of real work (simulations, recorded traces,
  // replays) and byte-identical deterministic results.
  EXPECT_EQ(a.engine().simulated, b.engine().simulated);
  EXPECT_EQ(a.engine().traces_recorded, b.engine().traces_recorded);
  EXPECT_EQ(a.engine().trace_replays, b.engine().trace_replays);
  EXPECT_EQ(a.results_json().dump(), b.results_json().dump());
}

TEST(Grid, BatchedRunIsScheduleIndependent) {
  const ExperimentGrid grid = batchable_grid();
  GridOptions serial;
  serial.jobs = 1;
  GridOptions parallel;
  parallel.jobs = 4;
  const GridResult a = grid.run(serial);
  const GridResult b = grid.run(parallel);
  EXPECT_EQ(a.results_json().dump(), b.results_json().dump());
}

TEST(Grid, BatchedAndUnbatchedShareCacheEntries) {
  // The cache identity is per run, not per batch: a cold batched pass must
  // populate exactly the entries a warm unbatched pass hits, and the
  // second pass simulates nothing.
  const TempDir dir("batch-cache");
  const ExperimentGrid grid = batchable_grid();
  GridOptions batched;
  batched.jobs = 1;
  batched.cache_dir = dir.str();
  GridOptions unbatched = batched;
  unbatched.batch = false;

  const GridResult cold = grid.run(batched);
  EXPECT_EQ(cold.engine().simulated, grid.size());
  EXPECT_GT(cold.engine().batches, 0u);

  const GridResult warm = grid.run(unbatched);
  EXPECT_EQ(warm.engine().simulated, 0u);
  EXPECT_EQ(warm.engine().cache.hits(), warm.engine().runs);
  // All-hit grids dispatch no batches: there is nothing left to simulate.
  EXPECT_EQ(warm.engine().batches, 0u);
  EXPECT_EQ(cold.results_json().dump(), warm.results_json().dump());
}

TEST(Grid, ObserveAndVerifyModesSurviveBatching) {
  const ExperimentGrid grid = batchable_grid();
  GridOptions batched;
  batched.jobs = 1;
  batched.observe = true;
  batched.verify = true;
  GridOptions unbatched = batched;
  unbatched.batch = false;

  const GridResult a = grid.run(batched);
  const GridResult b = grid.run(unbatched);
  EXPECT_GT(a.engine().batches, 0u);
  for (const RunResult& r : a.runs()) {
    ASSERT_EQ(r.status, RunStatus::kOk) << r.spec.workload << "/"
                                        << r.spec.label << ": " << r.error;
    EXPECT_TRUE(r.outcome.observed);
  }
  EXPECT_EQ(a.engine().observed, a.engine().runs);
  EXPECT_EQ(a.results_json().dump(), b.results_json().dump());
}

TEST(Grid, RunBudgetForcesPerRunExecution) {
  // A per-run wall-clock budget needs per-run timing, so it disables
  // batching even when the option is left on.
  const ExperimentGrid grid = batchable_grid();
  GridOptions options;
  options.jobs = 1;
  options.run_budget_ms = 1e9;  // effectively unlimited, but set
  const GridResult res = grid.run(options);
  EXPECT_EQ(res.engine().batches, 0u);
  for (const RunResult& r : res.runs()) EXPECT_EQ(r.status, RunStatus::kOk);
}

// A workload that assembles (so its cache key can be built) but never
// halts: building its experiment fails in the profiling run.
Workload spinning_workload() {
  return Workload{"spin", "never halts", "main: j main\n", 1000};
}

// Specs of `names` interleaved one by one across the workloads, so each
// workload's experiment is released while other workloads' groups are
// still queued. Same-policy greedy and selective specs at two latencies
// form two-lane batches.
ExperimentGrid interleaved_grid(const std::vector<std::string>& names) {
  ExperimentGrid grid;
  for (const std::string& name : names) {
    grid.add_workload(name == "spin" ? spinning_workload()
                                     : *find_workload(name));
  }
  for (const std::string& name : names) grid.add(baseline_spec(name));
  for (const int latency : {0, 10}) {
    for (const std::string& name : names) {
      grid.add(greedy_spec(name, "greedy-lat" + std::to_string(latency), 2,
                           latency));
      grid.add(selective_spec(name, "2pfu-lat" + std::to_string(latency), 2,
                              latency));
    }
  }
  return grid;
}

// The trace and verification totals of each workload run in a grid of its
// own: what an interleaved grid must report when every experiment's
// counters survive its early release.
EngineStats per_workload_totals(const std::vector<std::string>& names,
                                const GridOptions& options) {
  EngineStats sum;
  for (const std::string& name : names) {
    GridOptions solo = options;
    solo.jobs = 1;
    const EngineStats e = interleaved_grid({name}).run(solo).engine();
    sum.traces_recorded += e.traces_recorded;
    sum.trace_replays += e.trace_replays;
    sum.verified_preps += e.verified_preps;
  }
  return sum;
}

TEST(Grid, EarlyReleaseKeepsTraceAndVerifyCountersExact) {
  const std::vector<std::string> good = {"gsm_dec", "g721_dec"};
  GridOptions options;
  options.verify = true;
  const EngineStats want = per_workload_totals(good, options);
  // Three preparations per workload: baseline, greedy and selective.
  EXPECT_EQ(want.traces_recorded, 6u);
  EXPECT_EQ(want.verified_preps, 6u);
  EXPECT_GT(want.trace_replays, 0u);

  // The spinning workload's experiment never builds: its runs fail, and
  // its slot releases nothing and counts nothing.
  const ExperimentGrid grid =
      interleaved_grid({"gsm_dec", "spin", "g721_dec"});
  for (const int jobs : {1, 4}) {
    options.jobs = jobs;
    const GridResult res = grid.run(options);
    const EngineStats& got = res.engine();
    EXPECT_EQ(got.traces_recorded, want.traces_recorded) << "jobs " << jobs;
    EXPECT_EQ(got.trace_replays, want.trace_replays) << "jobs " << jobs;
    EXPECT_EQ(got.verified_preps, want.verified_preps) << "jobs " << jobs;
    EXPECT_EQ(got.ok, 10u) << "jobs " << jobs;
    EXPECT_EQ(got.failed, 5u) << "jobs " << jobs;
    EXPECT_EQ(res.at("spin", "baseline").error_kind, RunErrorKind::kSim);
  }
}

TEST(Grid, EarlyReleaseCountsRunsBeforeFailLimitSkips) {
  // jobs=1 claims groups in order: two gsm_dec runs, then the failure that
  // trips the limit, then skips — including gsm_dec's last group, whose
  // skip is what releases gsm_dec's experiment.
  ExperimentGrid grid;
  grid.add_workload(*find_workload("gsm_dec"));
  grid.add_workload(*find_workload("g721_dec"));
  grid.add_workload(spinning_workload());
  grid.add(baseline_spec("gsm_dec"));
  grid.add(greedy_spec("gsm_dec", "greedy", PfuConfig::kUnlimited, 0));
  grid.add(baseline_spec("spin"));
  grid.add(selective_spec("gsm_dec", "2pfu", 2, 10));
  grid.add(baseline_spec("g721_dec"));
  GridOptions options;
  options.jobs = 1;
  options.fail_limit = 1;
  const GridResult res = grid.run(options);
  EXPECT_EQ(res.engine().ok, 2u);
  EXPECT_EQ(res.engine().failed, 1u);
  EXPECT_EQ(res.engine().skipped, 2u);
  // The gsm_dec baseline recorded at construction plus greedy; the
  // baseline run replayed the former.
  EXPECT_EQ(res.engine().traces_recorded, 2u);
  EXPECT_EQ(res.engine().trace_replays, 1u);
}

TEST(Grid, GreedyOnAMachineWithoutPfusFailsAlone) {
  // A greedy rewrite dispatches EXT, which the default machine (no PFUs)
  // cannot execute: that run is a sim error, not a free EXT. Its sibling
  // greedy run shares its trace and replay batch and stays ok.
  ExperimentGrid grid;
  grid.add_workload(*find_workload("gsm_dec"));
  grid.add(baseline_spec("gsm_dec"));
  RunSpec nopfu = greedy_spec("gsm_dec", "greedy-default", 2, 10);
  nopfu.machine = baseline_machine();
  grid.add(nopfu);
  grid.add(greedy_spec("gsm_dec", "greedy2", 2, 10));
  for (const int jobs : {1, 4}) {
    GridOptions options;
    options.jobs = jobs;
    const GridResult res = grid.run(options);
    EXPECT_EQ(res.engine().ok, 2u) << "jobs " << jobs;
    EXPECT_EQ(res.engine().failed, 1u) << "jobs " << jobs;
    const RunResult& bad = res.at("gsm_dec", "greedy-default");
    EXPECT_EQ(bad.status, RunStatus::kError);
    EXPECT_EQ(bad.error_kind, RunErrorKind::kSim);
    EXPECT_NE(bad.error.find("pfu.count"), std::string::npos) << bad.error;
    EXPECT_TRUE(res.at("gsm_dec", "baseline").ok());
    ASSERT_TRUE(res.at("gsm_dec", "greedy2").ok());
    EXPECT_GT(res.at("gsm_dec", "greedy2").outcome.stats.pfu.lookups, 0u);
  }
}

TEST(Grid, CorruptDiskEntriesAreQuarantinedOnceAndRepaired) {
  const TempDir dir("corrupt");
  const ExperimentGrid grid = small_grid();
  GridOptions options;
  options.jobs = 1;
  options.cache_dir = dir.str();
  const GridResult first = grid.run(options);

  for (const auto& entry : fs::directory_iterator(dir.path())) {
    // Leave the advisory lock file alone: it is infrastructure, not an
    // entry, and the cross-process store path keeps it flocked.
    if (entry.path().filename() == ".lock") continue;
    std::ofstream(entry.path(), std::ios::trunc) << "{not json";
  }

  // Corruption is not an I/O error: each bad entry is quarantined to
  // <entry>.corrupt, the run degrades to misses, and the stores repair
  // the entries in place.
  const GridResult second = grid.run(options);
  EXPECT_EQ(second.engine().cache.hits(), 0u);
  EXPECT_EQ(second.engine().cache.disk_errors, 0u);
  EXPECT_EQ(second.engine().cache.quarantined, grid.size());
  EXPECT_EQ(second.engine().simulated, grid.size());
  EXPECT_EQ(first.results_json().dump(), second.results_json().dump());

  std::size_t corrupt_files = 0;
  std::size_t entry_files = 0;
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    if (entry.path().filename() == ".lock") continue;
    if (entry.path().extension() == ".corrupt") {
      ++corrupt_files;
    } else {
      ++entry_files;
    }
  }
  EXPECT_EQ(corrupt_files, grid.size());
  EXPECT_EQ(entry_files, grid.size());

  // Third cold run: the repaired entries hit; nothing is re-quarantined.
  const GridResult third = grid.run(options);
  EXPECT_EQ(third.engine().cache.disk_hits, grid.size());
  EXPECT_EQ(third.engine().cache.quarantined, 0u);
  EXPECT_EQ(third.engine().simulated, 0u);
  EXPECT_EQ(first.results_json().dump(), third.results_json().dump());
}

TEST(Cache, MissingEntryIsAPlainMissNotADiskError) {
  const TempDir dir("cache-missing");
  ResultCache cache(dir.str());
  const CacheKey key = make_cache_key(baseline_spec("gsm_dec"), 0x1234u, 100u);
  RunOutcome out;
  EXPECT_FALSE(cache.lookup(key, &out));
  const ResultCache::Counters c = cache.counters();
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.disk_errors, 0u);
  EXPECT_EQ(c.quarantined, 0u);
}

TEST(Cache, UnreadableEntryCountsAsDiskErrorNotMiss) {
  const TempDir dir("cache-unreadable");
  ResultCache cache(dir.str());
  const CacheKey key = make_cache_key(baseline_spec("gsm_dec"), 0x1234u, 100u);
  // A directory where the entry file should be: fopen succeeds on many
  // platforms but the read fails (EISDIR) — a present-but-unreadable path.
  // (chmod tricks don't work here; tests may run as root.)
  fs::create_directories(cache.entry_path(key));
  RunOutcome out;
  EXPECT_FALSE(cache.lookup(key, &out));
  const ResultCache::Counters c = cache.counters();
  EXPECT_EQ(c.disk_errors, 1u);
  EXPECT_EQ(c.quarantined, 0u);
}

TEST(Cache, EmptyEntryFileIsQuarantinedNotMissed) {
  const TempDir dir("cache-empty");
  const CacheKey key = make_cache_key(baseline_spec("gsm_dec"), 0x1234u, 100u);
  {
    ResultCache seed(dir.str());
    std::ofstream(seed.entry_path(key), std::ios::trunc);  // zero bytes
  }
  ResultCache cache(dir.str());
  RunOutcome out;
  EXPECT_FALSE(cache.lookup(key, &out));
  const ResultCache::Counters c = cache.counters();
  EXPECT_EQ(c.quarantined, 1u);
  EXPECT_EQ(c.disk_errors, 0u);
  EXPECT_TRUE(fs::exists(cache.entry_path(key) + ".corrupt"));
  EXPECT_FALSE(fs::exists(cache.entry_path(key)));
}

TEST(Cache, VersionMismatchedEntryIsQuarantinedAndRepairedByNextStore) {
  const TempDir dir("cache-version");
  const CacheKey key = make_cache_key(baseline_spec("gsm_dec"), 0x1234u, 100u);
  const RunOutcome outcome;  // a default outcome round-trips fine
  std::string entry_file;
  {
    // Store a healthy entry, then rewrite it claiming an older version.
    ResultCache seed(dir.str());
    seed.store(key, outcome);
    entry_file = seed.entry_path(key);
    std::ifstream is(entry_file);
    std::ostringstream buf;
    buf << is.rdbuf();
    Json entry = Json::parse(buf.str());
    entry["version"] = Json(1);
    std::ofstream(entry_file, std::ios::trunc) << entry.dump(2) << "\n";
  }
  ResultCache cache(dir.str());
  RunOutcome out;
  EXPECT_FALSE(cache.lookup(key, &out));
  EXPECT_EQ(cache.counters().quarantined, 1u);
  EXPECT_TRUE(fs::exists(entry_file + ".corrupt"));

  // The next store repairs the entry; a later cold cache hits on disk.
  cache.store(key, outcome);
  ResultCache fresh(dir.str());
  EXPECT_TRUE(fresh.lookup(key, &out));
  const ResultCache::Counters c = fresh.counters();
  EXPECT_EQ(c.disk_hits, 1u);
  EXPECT_EQ(c.quarantined, 0u);
  // The quarantine file is from the first pass only — never re-created.
  std::size_t corrupt_files = 0;
  for (const auto& e : fs::directory_iterator(dir.path())) {
    corrupt_files += e.path().extension() == ".corrupt" ? 1 : 0;
  }
  EXPECT_EQ(corrupt_files, 1u);
}

TEST(Cache, EntryWithAMissingMemberOrMalformedHashIsQuarantined) {
  // A cache entry holds every member as the writer writes it. A stall
  // cause absent from an observed outcome used to read as 0 cycles, and a
  // trace_hash of "12zz" as 0x12 (or "0X…12" and upper case as written).
  const CacheKey key = make_cache_key(baseline_spec("gsm_dec"), 0x1234u, 100u);
  RunOutcome observed;
  observed.observed = true;
  const auto without = [](const char* member) {
    return [member](Json* object) {
      Json kept = Json::object();
      for (const auto& m : object->members()) {
        if (m.first != member) kept[m.first] = m.second;
      }
      *object = std::move(kept);
    };
  };
  const auto with_hash = [](const char* hash) {
    return [hash](Json* outcome) { (*outcome)["trace_hash"] = Json(hash); };
  };
  const std::function<void(Json*)> corruptions[] = {
      [&](Json* o) { without("ext_reconfig")(&(*o)["stalls"]["causes"]); },
      [&](Json* o) { without("writebacks")(&(*o)["stats"]["dl1"]); },
      with_hash("12zz"),
      with_hash("0X00000000000012"),
      with_hash("00000000000000AB"),
      with_hash("000000000000000012"),
  };
  for (const auto& corrupt : corruptions) {
    const TempDir dir("cache-strict-entry");
    std::string entry_file;
    {
      ResultCache seed(dir.str());
      seed.store(key, observed);
      entry_file = seed.entry_path(key);
      std::ifstream is(entry_file);
      std::ostringstream buf;
      buf << is.rdbuf();
      Json entry = Json::parse(buf.str());
      corrupt(&entry["outcome"]);
      std::ofstream(entry_file, std::ios::trunc) << entry.dump(2) << "\n";
    }
    ResultCache cache(dir.str());
    RunOutcome out;
    EXPECT_FALSE(cache.lookup(key, &out));
    EXPECT_EQ(cache.counters().quarantined, 1u);
    EXPECT_EQ(cache.counters().misses, 1u);
    EXPECT_TRUE(fs::exists(entry_file + ".corrupt"));
  }
}

TEST(Cache, StoreOverAForeignKeyEntryCountsAsEviction) {
  const TempDir dir("cache-evict");
  const CacheKey key = make_cache_key(baseline_spec("gsm_dec"), 0x1234u, 100u);
  const RunOutcome outcome;
  std::string entry_file;
  {
    // A healthy entry whose recorded identity is some *other* key —
    // what a hash collision would leave at this path.
    ResultCache seed(dir.str());
    seed.store(key, outcome);
    entry_file = seed.entry_path(key);
    std::ifstream is(entry_file);
    std::ostringstream buf;
    buf << is.rdbuf();
    Json entry = Json::parse(buf.str());
    entry["key"] = Json("some other identity");
    std::ofstream(entry_file, std::ios::trunc) << entry.dump(2) << "\n";
  }
  ResultCache cache(dir.str());
  RunOutcome out;
  // A foreign occupant is a plain miss (healthy, just not ours) and is
  // left in place...
  EXPECT_FALSE(cache.lookup(key, &out));
  EXPECT_EQ(cache.counters().quarantined, 0u);
  EXPECT_EQ(cache.counters().disk_errors, 0u);
  EXPECT_TRUE(fs::exists(entry_file));
  // ...until this key stores, which replaces (evicts) it.
  cache.store(key, outcome);
  EXPECT_EQ(cache.counters().evicted, 1u);
  ResultCache fresh(dir.str());
  EXPECT_TRUE(fresh.lookup(key, &out));
}

TEST(Cache, FailedStoreLeavesNoTempDebris) {
  const TempDir dir("cache-failed-store");
  ResultCache cache(dir.str());
  const CacheKey key = make_cache_key(baseline_spec("gsm_dec"), 0x1234u, 100u);
  const RunOutcome outcome;

  // Cap the file-size limit below one entry so the temp-file write fails
  // mid-store (fwrite hits RLIMIT_FSIZE and returns short). SIGXFSZ must
  // be ignored or the kernel kills the process instead of failing the
  // write. This works as root, unlike permission tricks.
  struct rlimit old_limit;
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &old_limit), 0);
  auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  struct rlimit tiny = old_limit;
  tiny.rlim_cur = 16;
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &tiny), 0);

  cache.store(key, outcome);

  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &old_limit), 0);
  std::signal(SIGXFSZ, old_handler);

  EXPECT_EQ(cache.counters().disk_errors, 1u);
  EXPECT_FALSE(fs::exists(cache.entry_path(key)));
  // The regression: the failed store's unique .tmp.<pid>.<seq> file must
  // not survive — only the advisory lock file may remain in the directory.
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    EXPECT_EQ(entry.path().filename(), ".lock")
        << "leaked file: " << entry.path();
  }

  // The failure was disk-side only: the in-memory tier still has the
  // outcome, and a later store with the limit lifted repairs the disk.
  RunOutcome out;
  EXPECT_TRUE(cache.lookup(key, &out));
  cache.store(key, outcome);
  EXPECT_TRUE(fs::exists(cache.entry_path(key)));
}

TEST(Cache, QuarantineRenameFallbackCountsRemovedNotQuarantined) {
  const TempDir dir("cache-qremove");
  ResultCache cache(dir.str());
  const CacheKey key = make_cache_key(baseline_spec("gsm_dec"), 0x1234u, 100u);
  // A corrupt entry whose quarantine rename cannot succeed: a directory
  // squats on the .corrupt name (rename of a file over a directory fails),
  // so the cache falls back to removing the poison outright.
  std::ofstream(cache.entry_path(key)) << "{not json";
  fs::create_directories(cache.entry_path(key) + ".corrupt");

  RunOutcome out;
  EXPECT_FALSE(cache.lookup(key, &out));
  const ResultCache::Counters c = cache.counters();
  // The regression: the fallback removal used to count as `quarantined`
  // even though no quarantine file was created. It is its own outcome.
  EXPECT_EQ(c.quarantined, 0u);
  EXPECT_EQ(c.quarantine_removed, 1u);
  EXPECT_EQ(c.disk_errors, 0u);
  EXPECT_FALSE(fs::exists(cache.entry_path(key)));
}

TEST(Cache, SizeBudgetEvictsLeastRecentlyUsedEntries) {
  const TempDir dir("cache-budget");
  const RunOutcome outcome;
  const CacheKey k0 = make_cache_key(baseline_spec("gsm_dec"), 1u, 100u);
  const CacheKey k1 = make_cache_key(baseline_spec("gsm_dec"), 2u, 100u);
  const CacheKey k2 = make_cache_key(baseline_spec("gsm_dec"), 3u, 100u);

  // Size one entry, then budget for two and a half.
  std::uint64_t entry_size = 0;
  {
    ResultCache probe(dir.str());
    probe.store(k0, outcome);
    entry_size = fs::file_size(probe.entry_path(k0));
    fs::remove(probe.entry_path(k0));
  }
  ASSERT_GT(entry_size, 0u);
  const std::uint64_t budget = entry_size * 5 / 2;

  ResultCache cache(dir.str(), budget);
  EXPECT_EQ(cache.size_budget_bytes(), budget);
  cache.store(k0, outcome);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cache.store(k1, outcome);
  EXPECT_EQ(cache.counters().size_evicted, 0u);  // two entries fit

  // A disk hit from a fresh cache touches k0's mtime, making k1 the
  // least-recently-used entry even though it was stored later.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    ResultCache reader(dir.str(), budget);
    RunOutcome out;
    EXPECT_TRUE(reader.lookup(k0, &out));
    EXPECT_EQ(reader.counters().disk_hits, 1u);
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cache.store(k2, outcome);  // three entries exceed the budget

  EXPECT_EQ(cache.counters().size_evicted, 1u);
  EXPECT_TRUE(fs::exists(cache.entry_path(k0)));   // recently used: kept
  EXPECT_FALSE(fs::exists(cache.entry_path(k1)));  // LRU: evicted
  EXPECT_TRUE(fs::exists(cache.entry_path(k2)));   // just stored: exempt
  EXPECT_LE(cache.disk_usage_bytes(), budget);
}

TEST(Cache, JanitorSweepsAgedDebrisButNeverEntriesOrTheLock) {
  const TempDir dir("cache-janitor");
  ResultCache cache(dir.str());
  const CacheKey key = make_cache_key(baseline_spec("gsm_dec"), 0x1234u, 100u);
  cache.store(key, RunOutcome());
  // Crash debris: an orphaned writer temp and an aged quarantine file.
  const std::string temp = cache.entry_path(key) + ".tmp.99999.7";
  const std::string corrupt =
      (dir.path() / "0123456789abcdef.json.corrupt").string();
  std::ofstream(temp) << "torn";
  std::ofstream(corrupt) << "poison";

  // Nothing is older than an hour: the sweep must not touch live-looking
  // files (a concurrent writer's in-flight temp survives this way).
  const ResultCache::JanitorReport young = cache.janitor_sweep(3600.0);
  EXPECT_EQ(young.tmp_removed, 0u);
  EXPECT_EQ(young.corrupt_removed, 0u);
  EXPECT_TRUE(fs::exists(temp));
  EXPECT_TRUE(fs::exists(corrupt));

  // TTL zero sweeps all debris — and only debris.
  const ResultCache::JanitorReport swept = cache.janitor_sweep(0.0);
  EXPECT_EQ(swept.tmp_removed, 1u);
  EXPECT_EQ(swept.corrupt_removed, 1u);
  EXPECT_FALSE(fs::exists(temp));
  EXPECT_FALSE(fs::exists(corrupt));
  EXPECT_TRUE(fs::exists(cache.entry_path(key)));
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    const std::string name = entry.path().filename().string();
    EXPECT_TRUE(name == ".lock" ||
                entry.path() == fs::path(cache.entry_path(key)))
        << "unexpected survivor: " << entry.path();
  }
}

TEST(Cache, CallerTallyCountsOnlyItsOwnCalls) {
  const TempDir dir("cache-tally");
  ResultCache cache(dir.str());
  const CacheKey key = make_cache_key(baseline_spec("gsm_dec"), 0x1234u, 100u);
  RunOutcome out;
  cache.lookup(key, &out);  // miss, untallied
  ResultCache::Counters tally;
  cache.store(key, out, &tally);
  cache.lookup(key, &out, &tally);  // memory hit
  cache.lookup(key, &out);          // memory hit, untallied
  EXPECT_EQ(tally.misses, 0u);
  EXPECT_EQ(tally.stores, 1u);
  EXPECT_EQ(tally.memory_hits, 1u);
  // The shared counters count every call, tallied or not.
  const ResultCache::Counters all = cache.counters();
  EXPECT_EQ(all.misses, 1u);
  EXPECT_EQ(all.stores, 1u);
  EXPECT_EQ(all.memory_hits, 2u);

  // Counts made below lookup, on the disk tier, reach the tally too.
  ResultCache fresh(dir.str());
  ResultCache::Counters disk_tally;
  EXPECT_TRUE(fresh.lookup(key, &out, &disk_tally));
  EXPECT_EQ(disk_tally.disk_hits, 1u);
  EXPECT_EQ(disk_tally.lookups(), 1u);
}

// Two grids on one cache, interleaved by their fault hooks: grid A holds
// before its second run until grid B has done its first, and B holds
// before its second until A has finished. Each engine must count its own
// lookups and stores alone; diffs of the shared counters around each run
// would hand each grid the other's traffic.
TEST(Grid, GridsSharingACacheCountOnlyTheirOwnTraffic) {
  ResultCache cache;
  std::mutex mu;
  std::condition_variable cv;
  bool a_held = false;
  bool b_held = false;
  bool release_a = false;
  bool release_b = false;
  const auto hold = [&](bool* held, const bool* release) {
    std::unique_lock<std::mutex> lock(mu);
    *held = true;
    cv.notify_all();
    cv.wait(lock, [&] { return *release; });
  };
  const auto wait_for = [&](const bool* flag) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return *flag; });
  };
  const auto set = [&](bool* flag) {
    {
      std::lock_guard<std::mutex> lock(mu);
      *flag = true;
    }
    cv.notify_all();
  };

  ExperimentGrid a;
  a.add_workload(*find_workload("gsm_dec"));
  a.add_workload(*find_workload("g721_dec"));
  a.add(baseline_spec("gsm_dec"));
  a.add(baseline_spec("g721_dec"));
  GridOptions a_options;
  a_options.jobs = 1;
  a_options.cache = &cache;
  a_options.fault_hook = [&](const RunSpec& spec) {
    if (spec.workload == "g721_dec") hold(&a_held, &release_a);
  };

  ExperimentGrid b;
  b.add_workload(*find_workload("gsm_dec"));
  b.add(baseline_spec("gsm_dec"));  // a memory hit on A's first store
  b.add(greedy_spec("gsm_dec", "greedy", 2, 10));
  GridOptions b_options;
  b_options.jobs = 1;
  b_options.cache = &cache;
  b_options.fault_hook = [&](const RunSpec& spec) {
    if (spec.label == "greedy") hold(&b_held, &release_b);
  };

  EngineStats a_engine;
  EngineStats b_engine;
  std::thread a_thread([&] { a_engine = a.run(a_options).engine(); });
  wait_for(&a_held);
  std::thread b_thread([&] { b_engine = b.run(b_options).engine(); });
  wait_for(&b_held);
  set(&release_a);
  a_thread.join();
  set(&release_b);
  b_thread.join();

  EXPECT_EQ(a_engine.ok, 2u);
  EXPECT_EQ(a_engine.cache.memory_hits, 0u);
  EXPECT_EQ(a_engine.cache.misses, 2u);
  EXPECT_EQ(a_engine.cache.stores, 2u);
  EXPECT_EQ(a_engine.simulated, 2u);
  EXPECT_EQ(b_engine.ok, 2u);
  EXPECT_EQ(b_engine.cache.memory_hits, 1u);
  EXPECT_EQ(b_engine.cache.misses, 1u);
  EXPECT_EQ(b_engine.cache.stores, 1u);
  EXPECT_EQ(b_engine.simulated, 1u);
  // The shared counters hold both grids' traffic.
  const ResultCache::Counters all = cache.counters();
  EXPECT_EQ(all.memory_hits, 1u);
  EXPECT_EQ(all.misses, 3u);
  EXPECT_EQ(all.stores, 3u);
}

// The work counters BENCH_10.json records per scenario, in its order.
std::string scenario_counts(const EngineStats& e,
                            const ResultCache::Counters& cache) {
  std::string out;
  const auto put = [&](const char* name, std::uint64_t value) {
    out += std::string(name) + "=" + std::to_string(value) + " ";
  };
  put("runs", e.runs);
  put("ok", e.ok);
  put("failed", e.incomplete());
  put("simulated", e.simulated);
  put("traces_recorded", e.traces_recorded);
  put("trace_replays", e.trace_replays);
  put("batches", e.batches);
  put("batched_runs", e.batched_runs);
  put("verified_preps", e.verified_preps);
  put("observed", e.observed);
  put("cache_hits", cache.hits());
  put("cache_misses", cache.misses);
  put("cache_stores", cache.stores);
  return out;
}

TEST(Grid, BenchTenScenariosKeepTheirCounts) {
  // The eight scenarios of BENCH_10.json, each a grid on one worker over a
  // cache of its own, with the counters that file records for them:
  // schedule-independent, so exact.
  struct Scenario {
    const char* name;
    std::vector<RunSpec> specs;
    bool batch = true;
    bool verify = false;
    bool observe = false;
    int rounds = 1;  // grid runs over the one cache; the last one counts
    const char* want;
  };
  std::vector<RunSpec> paper_greedy;
  std::vector<RunSpec> paper_selective;
  for (const char* w : {"gsm_dec", "g721_dec"}) {
    paper_greedy.push_back(baseline_spec(w));
    paper_greedy.push_back(greedy_spec(w, "greedy2", 2, 10));
    paper_selective.push_back(baseline_spec(w));
    paper_selective.push_back(selective_spec(w, "sel2", 2, 10));
  }
  std::vector<RunSpec> latency_sweep = {baseline_spec("gsm_dec")};
  for (const int latency : {5, 10, 20, 40}) {
    latency_sweep.push_back(selective_spec(
        "gsm_dec", "L" + std::to_string(latency), 2, latency));
  }
  const auto pair = [](const char* w) {
    return std::vector<RunSpec>{baseline_spec(w),
                                selective_spec(w, "sel2", 2, 10)};
  };
  const Scenario scenarios[] = {
      {.name = "paper_greedy", .specs = paper_greedy,
       .want = "runs=4 ok=4 failed=0 simulated=4 traces_recorded=4 "
               "trace_replays=2 batches=0 batched_runs=0 verified_preps=0 "
               "observed=0 cache_hits=0 cache_misses=4 cache_stores=4 "},
      {.name = "paper_selective", .specs = paper_selective,
       .want = "runs=4 ok=4 failed=0 simulated=4 traces_recorded=4 "
               "trace_replays=2 batches=0 batched_runs=0 verified_preps=0 "
               "observed=0 cache_hits=0 cache_misses=4 cache_stores=4 "},
      {.name = "batched_replay", .specs = latency_sweep,
       .want = "runs=5 ok=5 failed=0 simulated=5 traces_recorded=2 "
               "trace_replays=4 batches=1 batched_runs=4 verified_preps=0 "
               "observed=0 cache_hits=0 cache_misses=5 cache_stores=5 "},
      {.name = "single_replay", .specs = latency_sweep, .batch = false,
       .want = "runs=5 ok=5 failed=0 simulated=5 traces_recorded=2 "
               "trace_replays=4 batches=0 batched_runs=0 verified_preps=0 "
               "observed=0 cache_hits=0 cache_misses=5 cache_stores=5 "},
      // Whole-scenario cache traffic: the cold round's misses and stores,
      // the warm round's hits.
      {.name = "cache_roundtrip", .specs = pair("g721_enc"), .rounds = 2,
       .want = "runs=2 ok=2 failed=0 simulated=0 traces_recorded=0 "
               "trace_replays=0 batches=0 batched_runs=0 verified_preps=0 "
               "observed=0 cache_hits=2 cache_misses=2 cache_stores=2 "},
      {.name = "compiled_kernel", .specs = pair("cc_cikernel"),
       .want = "runs=2 ok=2 failed=0 simulated=2 traces_recorded=2 "
               "trace_replays=1 batches=0 batched_runs=0 verified_preps=0 "
               "observed=0 cache_hits=0 cache_misses=2 cache_stores=2 "},
      {.name = "verified_sweep", .specs = pair("mpeg2_dec"), .verify = true,
       .want = "runs=2 ok=2 failed=0 simulated=2 traces_recorded=2 "
               "trace_replays=3 batches=0 batched_runs=0 verified_preps=2 "
               "observed=0 cache_hits=0 cache_misses=2 cache_stores=2 "},
      {.name = "observed_sweep", .specs = pair("epic"), .observe = true,
       .want = "runs=2 ok=2 failed=0 simulated=2 traces_recorded=2 "
               "trace_replays=1 batches=0 batched_runs=0 verified_preps=0 "
               "observed=2 cache_hits=0 cache_misses=2 cache_stores=2 "},
  };
  for (const Scenario& s : scenarios) {
    ExperimentGrid grid;
    std::set<std::string> added;
    for (const RunSpec& spec : s.specs) {
      if (added.insert(spec.workload).second) {
        grid.add_workload(*find_workload(spec.workload));
      }
      grid.add(spec);
    }
    ResultCache cache;
    GridOptions options;
    options.jobs = 1;
    options.cache = &cache;
    options.batch = s.batch;
    options.verify = s.verify;
    options.observe = s.observe;
    EngineStats engine;
    for (int round = 0; round < s.rounds; ++round) {
      engine = grid.run(options).engine();
    }
    EXPECT_EQ(scenario_counts(engine, cache.counters()), s.want) << s.name;
  }
}

TEST(Grid, EngineSummaryNeverTruncates) {
  // Worst-case field widths: every counter near its maximum. The old
  // fixed 224-byte buffer truncated this; the growable formatter must
  // render every field through the trailing "replayed".
  EngineStats stats;
  stats.runs = 18446744073709551615ull;
  stats.ok = 18446744073709551615ull;
  stats.failed = 18446744073709551615ull;
  stats.timeouts = 18446744073709551615ull;
  stats.skipped = 18446744073709551615ull;
  stats.simulated = 18446744073709551615ull;
  stats.traces_recorded = 18446744073709551615ull;
  stats.trace_replays = 18446744073709551615ull;
  stats.cache.memory_hits = 18446744073709551615ull;
  stats.cache.disk_hits = 18446744073709551615ull;
  stats.cache.misses = 18446744073709551615ull;
  stats.cache.disk_errors = 18446744073709551615ull;
  stats.cache.quarantined = 18446744073709551615ull;
  stats.cache.evicted = 18446744073709551615ull;
  stats.jobs = 32768;
  stats.wall_ms = 1e15;
  const GridResult result({}, stats);
  const std::string summary = result.engine_summary();
  EXPECT_GT(summary.size(), 224u);  // would not fit the old buffer
  const std::string max = "18446744073709551615";
  EXPECT_NE(summary.find(max + " runs"), std::string::npos) << summary;
  EXPECT_NE(summary.find("quarantined"), std::string::npos) << summary;
  EXPECT_NE(summary.find("disk error"), std::string::npos) << summary;
  EXPECT_EQ(summary.rfind("replayed"), summary.size() - 8) << summary;
}

TEST(Grid, AddRejectsUnknownWorkloadsAndSelectors) {
  ExperimentGrid grid;
  grid.add_workload(*find_workload("gsm_dec"));
  EXPECT_THROW(grid.add(baseline_spec("unregistered")),
               std::invalid_argument);
  // Duplicate (workload, label) pairs would make at() ambiguous.
  grid.add(baseline_spec("gsm_dec"));
  EXPECT_THROW(grid.add(baseline_spec("gsm_dec")), std::invalid_argument);
}

TEST(Grid, CacheKeyCoversIdentityButNotPresentation) {
  const std::uint64_t hash = 0x1234u;
  const std::uint64_t steps = 1000u;
  const CacheKey base = make_cache_key(baseline_spec("gsm_dec"), hash, steps);

  // Label is presentation-only: same key.
  const CacheKey relabeled =
      make_cache_key(baseline_spec("gsm_dec", "other-label"), hash, steps);
  EXPECT_EQ(base.text, relabeled.text);
  EXPECT_EQ(base.hash, relabeled.hash);

  // Every identity field must change the key (the exhaustive per-field
  // sweep lives in cache_key_test.cpp).
  EXPECT_NE(base.text,
            make_cache_key(baseline_spec("gsm_dec"), 0x9999u, steps).text);
  EXPECT_NE(base.text,
            make_cache_key(baseline_spec("gsm_dec"), hash, 999u).text);
  EXPECT_NE(base.text,
            make_cache_key(greedy_spec("gsm_dec", "", 2, 10), hash, steps).text);
  EXPECT_NE(
      make_cache_key(selective_spec("gsm_dec", "", 2, 10), hash, steps).text,
      make_cache_key(selective_spec("gsm_dec", "", 4, 10), hash, steps).text);
  EXPECT_NE(
      make_cache_key(selective_spec("gsm_dec", "", 2, 10), hash, steps).text,
      make_cache_key(selective_spec("gsm_dec", "", 2, 500), hash, steps).text);
  RunSpec longer = baseline_spec("gsm_dec");
  longer.max_cycles = 1234;
  EXPECT_NE(base.text, make_cache_key(longer, hash, steps).text);
}

TEST(Grid, ResolveJobsClampsToHardware) {
  EXPECT_GE(resolve_jobs(0), 1);
  EXPECT_EQ(resolve_jobs(3), 3);
  EXPECT_EQ(resolve_jobs(-5), resolve_jobs(0));
}

TEST(Grid, ToJsonContainsResultsAndEngineSections) {
  ExperimentGrid grid;
  grid.add_workload(*find_workload("gsm_dec"));
  grid.add(baseline_spec("gsm_dec"));
  GridOptions options;
  options.jobs = 2;
  const GridResult res = grid.run(options);
  const Json j = res.to_json();
  ASSERT_NE(j.find("results"), nullptr);
  ASSERT_NE(j.find("engine"), nullptr);
  // One spec: the pool is clamped so no worker sits idle.
  EXPECT_EQ(j.at("engine").at("jobs").as_int(), 1);
  EXPECT_EQ(j.at("engine").at("runs").as_uint(), 1u);
  EXPECT_EQ(j.at("results").at(0).at("spec").at("workload").as_string(),
            "gsm_dec");
  EXPECT_GT(j.at("results").at(0).at("outcome").at("stats").at("cycles")
                .as_uint(),
            0u);
  // The engine summary line is human-oriented but must mention cache use.
  EXPECT_NE(res.engine_summary().find("cache"), std::string::npos);
}

}  // namespace
}  // namespace t1000
