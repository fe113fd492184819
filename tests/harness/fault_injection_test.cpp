// Fault isolation in the experiment grid: one poisoned RunSpec must not
// cost any other run its result, its determinism, or the grid itself.
//
// The core proof is differential: a paper-sized grid (every workload x
// {baseline, greedy-unlimited, greedy-2pfu}) is run clean once, then with
// one spec's fault hook throwing, at jobs=1 and jobs=4. Every non-poisoned
// outcome must be byte-identical (SimStats JSON) to the clean grid, the
// poisoned run must carry its status/taxonomy/message, and the failure
// must surface in the results JSON, the engine summary, and the
// finish_bench exit code.
#include "harness/grid.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <thread>

#include "analysis/diagnostic.hpp"
#include "asmkit/assembler.hpp"
#include "asmkit/objfile.hpp"
#include "harness/serialize.hpp"
#include "isa/encoding.hpp"
#include "minic/token.hpp"
#include "sim/executor.hpp"
#include "sim/memory.hpp"

namespace t1000 {
namespace {

// The fig2-shaped grid over the full 12-workload suite: 3 specs per
// workload, all cache keys distinct — 36 runs.
ExperimentGrid paper_grid() {
  ExperimentGrid grid;
  grid.add_workloads(all_workloads());
  grid.add_workloads(extended_workloads());
  for (const auto* suite : {&all_workloads(), &extended_workloads()}) {
    for (const Workload& w : *suite) {
      grid.add(baseline_spec(w.name));
      grid.add(greedy_spec(w.name, "unlimited", PfuConfig::kUnlimited, 0));
      grid.add(greedy_spec(w.name, "2pfu", 2, 10));
    }
  }
  return grid;
}

// One cheap workload, two specs — enough to see isolation without paying
// for a full sweep in every taxonomy case.
ExperimentGrid tiny_grid() {
  ExperimentGrid grid;
  grid.add_workload(*find_workload("gsm_dec"));
  grid.add(baseline_spec("gsm_dec", "a"));
  grid.add(greedy_spec("gsm_dec", "b", PfuConfig::kUnlimited, 0));
  return grid;
}

// Hook that throws `thrower()` for exactly one (workload, label).
template <typename Thrower>
std::function<void(const RunSpec&)> poison(std::string workload,
                                           std::string label,
                                           Thrower thrower) {
  return [workload = std::move(workload), label = std::move(label),
          thrower](const RunSpec& spec) {
    if (spec.workload == workload && spec.label == label) thrower();
  };
}

TEST(FaultInjection, PoisonedSpecLeavesEveryOtherRunByteIdentical) {
  const ExperimentGrid grid = paper_grid();
  ASSERT_EQ(grid.size(), 36u) << "the differential proof wants the full grid";

  GridOptions clean_opts;
  clean_opts.jobs = 1;
  const GridResult clean = grid.run(clean_opts);
  ASSERT_EQ(clean.engine().ok, grid.size());

  const std::size_t poisoned = 7;  // some mid-grid spec; any index works
  const RunSpec& victim = clean.runs()[poisoned].spec;

  std::string first_results_json;
  for (const int jobs : {1, 4}) {
    GridOptions opts;
    opts.jobs = jobs;
    opts.fault_hook = poison(victim.workload, victim.label, [] {
      throw SimError("injected failure");
    });
    // The grid returns instead of throwing.
    const GridResult faulty = grid.run(opts);
    ASSERT_EQ(faulty.runs().size(), clean.runs().size());

    // Every other run: ok, and byte-identical simulated stats.
    for (std::size_t i = 0; i < clean.runs().size(); ++i) {
      if (i == poisoned) continue;
      EXPECT_EQ(faulty.runs()[i].status, RunStatus::kOk);
      EXPECT_EQ(to_json(faulty.runs()[i].outcome.stats).dump(),
                to_json(clean.runs()[i].outcome.stats).dump())
          << "run " << i << " diverged at jobs=" << jobs;
    }

    // The poisoned run carries status + taxonomy + message.
    const RunResult& bad = faulty.runs()[poisoned];
    EXPECT_EQ(bad.status, RunStatus::kError);
    EXPECT_EQ(bad.error_kind, RunErrorKind::kSim);
    EXPECT_NE(bad.error.find("injected failure"), std::string::npos);
    EXPECT_FALSE(bad.ok());

    // Engine counters tally the split.
    EXPECT_EQ(faulty.engine().ok, grid.size() - 1);
    EXPECT_EQ(faulty.engine().failed, 1u);
    EXPECT_EQ(faulty.engine().timeouts, 0u);
    EXPECT_EQ(faulty.engine().skipped, 0u);

    // The failure shows in the results JSON...
    const Json rj = faulty.results_json();
    EXPECT_EQ(rj.at(poisoned).at("status").as_string(), "error");
    EXPECT_EQ(rj.at(poisoned).at("error").at("kind").as_string(), "sim");
    EXPECT_EQ(rj.at(poisoned).at("error").at("message").as_string(),
              "injected failure");
    EXPECT_EQ(rj.at(poisoned == 0 ? 1 : 0).find("error"), nullptr);

    // ...in the engine summary...
    const std::string summary = faulty.engine_summary();
    EXPECT_NE(summary.find("1 failed"), std::string::npos) << summary;

    // ...and in the process exit code (opt-out via --keep-going).
    BenchOptions bench;
    EXPECT_EQ(finish_bench(faulty, bench), 1);
    bench.keep_going = true;
    EXPECT_EQ(finish_bench(faulty, bench), 0);

    // Failures included, the results JSON is schedule-independent:
    // jobs=4 must serialize byte-identically to jobs=1.
    if (first_results_json.empty()) {
      first_results_json = rj.dump();
    } else {
      EXPECT_EQ(rj.dump(), first_results_json);
    }

    // at() still returns the failed run; the outcome accessors refuse it.
    EXPECT_EQ(faulty.at(victim.workload, victim.label).status,
              RunStatus::kError);
    EXPECT_THROW(faulty.outcome(victim.workload, victim.label),
                 std::runtime_error);
    EXPECT_THROW(faulty.stats(victim.workload, victim.label),
                 std::runtime_error);
  }
}

TEST(FaultInjection, ErrorTaxonomyClassifiesEachKind) {
  const ExperimentGrid grid = tiny_grid();
  struct Case {
    std::function<void()> thrower;
    RunErrorKind kind;
    const char* message;
  };
  const Case cases[] = {
      {[] { throw SimError("sim boom"); }, RunErrorKind::kSim, "sim boom"},
      {[] { throw MemError("misaligned boom"); }, RunErrorKind::kSim,
       "misaligned boom"},
      {[] { throw AsmError(2, "unknown mnemonic"); }, RunErrorKind::kInput,
       "line 2: unknown mnemonic"},
      {[] { throw ObjError("truncated object"); }, RunErrorKind::kInput,
       "truncated object"},
      {[] { throw minic::CompileError(3, "expected ';'"); },
       RunErrorKind::kInput, "line 3: expected ';'"},
      {[] { throw EncodingError("bad word"); }, RunErrorKind::kInput,
       "bad word"},
      {[] { throw VerifyError("verify boom"); }, RunErrorKind::kVerify,
       "verify boom"},
      {[] { throw JsonError("json boom"); }, RunErrorKind::kJson, "json boom"},
      {[] { throw CacheIoError("cache boom"); }, RunErrorKind::kCacheIo,
       "cache boom"},
      {[] { throw std::runtime_error("std boom"); },
       RunErrorKind::kStdException, "std boom"},
      {[] { throw 42; }, RunErrorKind::kUnknown, "non-std::exception"},
  };
  for (const Case& c : cases) {
    GridOptions opts;
    opts.jobs = 1;
    opts.fault_hook = poison("gsm_dec", "a", c.thrower);
    const GridResult res = grid.run(opts);
    const RunResult& bad = res.at("gsm_dec", "a");
    EXPECT_EQ(bad.status, RunStatus::kError);
    EXPECT_EQ(bad.error_kind, c.kind);
    EXPECT_NE(bad.error.find(c.message), std::string::npos) << bad.error;
    EXPECT_EQ(res.at("gsm_dec", "b").status, RunStatus::kOk);
    EXPECT_EQ(res.engine().failed, 1u);
    EXPECT_EQ(res.engine().ok, 1u);
  }
}

TEST(FaultInjection, HookRaisedTimeoutIsRecordedAsTimeout) {
  const ExperimentGrid grid = tiny_grid();
  GridOptions opts;
  opts.jobs = 1;
  opts.fault_hook =
      poison("gsm_dec", "a", [] { throw GridTimeoutError("watchdog fired"); });
  const GridResult res = grid.run(opts);
  const RunResult& bad = res.at("gsm_dec", "a");
  EXPECT_EQ(bad.status, RunStatus::kTimeout);
  EXPECT_EQ(bad.error_kind, RunErrorKind::kNone);
  EXPECT_NE(bad.error.find("watchdog"), std::string::npos);
  EXPECT_EQ(res.engine().timeouts, 1u);
  EXPECT_EQ(res.at("gsm_dec", "b").status, RunStatus::kOk);
  EXPECT_EQ(res.results_json().at(0).at("status").as_string(), "timeout");
}

TEST(FaultInjection, RunBudgetTurnsSlowRunsIntoTimeouts) {
  // Single-spec grid so the assertion cannot flake on machine speed: the
  // injected delay dwarfs the budget no matter how slow the run itself is.
  ExperimentGrid grid;
  grid.add_workload(*find_workload("gsm_dec"));
  grid.add(baseline_spec("gsm_dec"));
  GridOptions opts;
  opts.jobs = 1;
  opts.run_budget_ms = 50.0;
  opts.fault_hook = [](const RunSpec&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  };
  const GridResult res = grid.run(opts);
  const RunResult& r = res.runs()[0];
  EXPECT_EQ(r.status, RunStatus::kTimeout);
  EXPECT_EQ(r.error_kind, RunErrorKind::kNone);
  EXPECT_NE(r.error.find("wall-clock budget"), std::string::npos) << r.error;
  EXPECT_GT(r.wall_ms, 50.0);
  EXPECT_EQ(res.engine().timeouts, 1u);
  EXPECT_EQ(res.engine().ok, 0u);
  // Timeouts count as incomplete for the bench exit code.
  BenchOptions bench;
  EXPECT_EQ(finish_bench(res, bench), 1);
}

TEST(FaultInjection, FailLimitSkipsRemainingSpecs) {
  const ExperimentGrid grid = tiny_grid();
  GridOptions opts;
  opts.jobs = 1;  // deterministic claim order: "a" fails, "b" is skipped
  opts.fail_limit = 1;
  opts.fault_hook =
      poison("gsm_dec", "a", [] { throw SimError("first failure"); });
  const GridResult res = grid.run(opts);
  EXPECT_EQ(res.at("gsm_dec", "a").status, RunStatus::kError);
  const RunResult& skipped = res.at("gsm_dec", "b");
  EXPECT_EQ(skipped.status, RunStatus::kSkipped);
  EXPECT_EQ(skipped.error_kind, RunErrorKind::kNone);
  EXPECT_NE(skipped.error.find("fail limit"), std::string::npos);
  EXPECT_EQ(res.engine().failed, 1u);
  EXPECT_EQ(res.engine().skipped, 1u);
  EXPECT_EQ(res.results_json().at(1).at("status").as_string(), "skipped");
}

TEST(FaultInjection, FailedRunIsNeverCached) {
  // A poisoned run must not memoize a bogus outcome: re-running the same
  // grid without the fault simulates and succeeds.
  ExperimentGrid grid;
  grid.add_workload(*find_workload("gsm_dec"));
  grid.add(baseline_spec("gsm_dec"));
  GridOptions opts;
  opts.jobs = 1;
  opts.fault_hook = poison("gsm_dec", "baseline",
                           [] { throw SimError("poisoned"); });
  const GridResult bad = grid.run(opts);
  EXPECT_EQ(bad.engine().failed, 1u);
  EXPECT_EQ(bad.engine().cache.stores, 0u);

  GridOptions clean;
  clean.jobs = 1;
  const GridResult good = grid.run(clean);
  EXPECT_EQ(good.engine().ok, 1u);
  EXPECT_GT(good.runs()[0].outcome.stats.cycles, 0u);
}

}  // namespace
}  // namespace t1000
