// The parallel experiment engine.
//
// Every paper artifact is a grid of (workload x selector x machine config)
// runs. ExperimentGrid takes that grid declaratively — register workloads,
// add RunSpecs — and schedules it across a std::thread worker pool
// (--jobs N, default hardware concurrency). Two properties make the grid
// strictly better than the hand-rolled nested loops it replaces:
//
//  * the expensive per-workload profile/extraction (AnalyzedProgram) is
//    built once per workload, on whichever worker first needs it, and
//    shared by every spec that touches the workload; and
//  * completed RunOutcomes are memoized in a content-keyed cache
//    (harness/cache.hpp), in-memory and optionally on-disk, so re-running
//    a bench or sweeping one axis only simulates what changed.
//
// Results come back in spec insertion order regardless of the schedule, so
// a parallel run is byte-identical to a serial one (the determinism test
// in tests/harness/grid_test.cpp holds the engine to that). Wall-clock and
// cache hit/miss counters are recorded per run and exported in the JSON
// "engine" section, keeping the perf trajectory observable across PRs.
//
// Execution is fault-isolated: one failing RunSpec is recorded (status +
// error taxonomy + message, see RunStatus/RunErrorKind) while every other
// run completes untouched, so a large sweep degrades to N-1 results
// instead of zero. tests/harness/fault_injection_test.cpp pins that
// contract differentially against a fault-free grid.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <memory>

#include "harness/cache.hpp"
#include "harness/experiment.hpp"
#include "harness/json.hpp"
#include "harness/options.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"

namespace t1000 {

// How one queued RunSpec ended. A failing run no longer aborts the grid:
// the failure is recorded here and the workers keep draining the queue
// (GridOptions::fail_limit skips what is left once enough runs failed).
enum class RunStatus {
  kOk,       // outcome is valid
  kError,    // run threw; see RunResult::error_kind / error
  kTimeout,  // exceeded GridOptions::run_budget_ms (or a hook-raised budget)
  kSkipped,  // never executed: an earlier failure tripped fail_limit
};

// Coarse taxonomy of what threw, so sweeps over thousands of runs can be
// triaged from the results JSON without re-running anything.
enum class RunErrorKind {
  kNone,          // status is kOk, kTimeout (budget), or kSkipped
  kSim,           // SimError or MemError: simulation/validation failure
  kVerify,        // VerifyError: static verification failed (RunSpec::verify)
  kInput,         // AsmError, ObjError, CompileError, EncodingError:
                  // malformed source or object input
  kJson,          // JsonError: serialization or cache-entry decode failure
  kCacheIo,       // CacheIoError: result-cache I/O failure
  kStdException,  // any other std::exception
  kUnknown,       // non-std::exception throw
};

// Thrown (by cooperative budget checks and test fault hooks) to mark a run
// as timed out rather than failed.
class GridTimeoutError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Classifies the in-flight exception of a catch block into the taxonomy
// and captures its message. Shared by the grid workers and the tools'
// uniform error exit (tools/tool_common.hpp).
RunErrorKind classify_current_exception(std::string* message);

struct GridOptions {
  int jobs = 0;           // worker threads; 0 = hardware concurrency
  std::string cache_dir;  // on-disk result cache; empty = disabled
  // Size budget for the on-disk cache (0 = unbounded): after each store,
  // least-recently-used entries are evicted until the directory fits
  // (harness/cache.hpp). Ignored when `cache` is set — a borrowed cache
  // carries its own budget.
  std::uint64_t cache_budget_bytes = 0;
  // Borrowed long-lived result cache: when set, the grid uses it instead
  // of constructing one per run, so a process that runs many grids (the
  // t1000-serve daemon) keeps one hot in-memory tier across requests.
  // cache_dir/cache_budget_bytes are ignored; EngineStats::cache counts
  // this grid's own lookups and stores alone, even while other grids use
  // the same cache. Must outlive run(); thread-safe.
  ResultCache* cache = nullptr;
  // Per-run wall-clock budget in milliseconds; 0 = unlimited. A run that
  // exceeds it is recorded as RunStatus::kTimeout instead of kOk, turning
  // runaway simulations into a diagnosable outcome rather than a hung
  // sweep. (Step budgets are per-spec: RunSpec::max_cycles.)
  double run_budget_ms = 0.0;
  // Degraded-grid circuit breaker: once this many runs have failed or
  // timed out, remaining unstarted specs are marked kSkipped instead of
  // executed; 0 = no limit. The benches' --strict sets 1.
  std::uint64_t fail_limit = 0;
  // Pre-flight static verification (--verify): forces RunSpec::verify on
  // every queued spec before scheduling, so each distinct (workload,
  // selector, policy) preparation is verified once and a violation surfaces
  // as RunStatus::kError with RunErrorKind::kVerify. Because the flag is
  // part of the cache identity, a cache hit under --verify is a previously
  // verified configuration, not a skipped check.
  bool verify = false;
  // Stall observation (--observe): forces RunSpec::observe on every queued
  // spec before scheduling, so each timing run attributes its stall cycles
  // (RunOutcome::stalls) and the engine aggregates a grid-level breakdown
  // (EngineStats::stalls). Part of the cache identity, like verify.
  bool observe = false;
  // Config-parallel batched replay (--no-batch disables): cache-missing
  // specs that share a batch identity (RunIdentity::batch_key — same
  // workload, selector, policy, and verify flag; the lane-grouping rule)
  // are timed as lanes of one simulate_replay_batch sweep instead of N
  // sequential replays. Per-run status, cache entries, fault isolation,
  // and observe/verify semantics are unchanged, and the results are
  // byte-identical to the sequential path (pinned by tests). Forced off
  // when run_budget_ms > 0: a per-run wall-clock budget needs per-run
  // execution.
  bool batch = true;
  // Optional harness metrics sink (obs/metrics.hpp): when set, the engine
  // records its scheduling/caching counters and per-run wall-clock into it
  // ("grid.*" instruments). Borrowed, never owned; must outlive run().
  // Instruments are shared get-or-create, so one registry can observe many
  // grids — the worker-pool updates are lock-free and TSan-clean.
  obs::MetricsRegistry* metrics = nullptr;
  // Optional event journal (obs/journal.hpp): when set together with an
  // active `trace`, every worker installs the trace as its thread-local
  // context and emits run/batch spans and cache.lookup/cache.store
  // instants into the journal — and the experiment's phase spans
  // (decode/record/replay/verify) parent under the enclosing run span.
  // Borrowed, never owned; must outlive run(). A null journal or an
  // inactive trace (trace_id == 0) makes every emission a no-op.
  obs::Journal* journal = nullptr;
  // The trace this grid's runs belong to — a serve job's id, a bench's
  // root span. Threaded explicitly across the thread boundary: each
  // worker installs it via ScopedTraceContext before touching a spec.
  obs::TraceContext trace;
  // Test-only fault injection: invoked on the worker thread before each
  // run executes (cache lookup included); may throw or delay to simulate
  // failures. Exceptions it raises are classified like any other.
  std::function<void(const RunSpec&)> fault_hook;
};

struct RunResult {
  RunSpec spec;
  RunOutcome outcome;      // valid only when status == RunStatus::kOk
  RunStatus status = RunStatus::kOk;
  RunErrorKind error_kind = RunErrorKind::kNone;
  std::string error;       // captured what() / diagnostic; empty when ok
  bool cache_hit = false;  // served from memo cache (memory or disk)
  double wall_ms = 0.0;    // this run's wall-clock on its worker

  bool ok() const { return status == RunStatus::kOk; }
};

struct EngineStats {
  int jobs = 1;
  std::uint64_t runs = 0;
  std::uint64_t simulated = 0;  // cache misses, i.e. actual work
  // Outcome-status tally: ok + failed + timeouts + skipped == runs.
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t skipped = 0;
  ResultCache::Counters cache;
  double wall_ms = 0.0;  // whole-grid wall-clock
  // Trace sharing across the simulated runs: distinct committed traces
  // recorded (one per (workload, selector, policy)) vs. timing runs served
  // by replaying an already-recorded trace.
  std::uint64_t traces_recorded = 0;
  std::uint64_t trace_replays = 0;
  // Config-parallel batching: sweeps dispatched (>= 2 cache misses sharing
  // a prepared trace, timed in one batched replay) and the runs that were
  // timed as lanes of one.
  std::uint64_t batches = 0;
  std::uint64_t batched_runs = 0;
  // Grid-level stall attribution: how many ok runs carried a breakdown
  // (RunSpec::observe), and their element-wise sum.
  std::uint64_t observed = 0;
  StallBreakdown stalls;
  // Static-verification overhead under --verify: distinct preparations
  // verified (memoized once per (workload, selector, policy)) and the
  // wall-clock the verifier cost across them.
  std::uint64_t verified_preps = 0;
  double verify_ms = 0.0;

  std::uint64_t incomplete() const { return failed + timeouts + skipped; }
};

class GridResult {
 public:
  GridResult(std::vector<RunResult> runs, EngineStats engine);

  const std::vector<RunResult>& runs() const { return runs_; }
  const EngineStats& engine() const { return engine_; }

  // Lookup by the (workload, label) pair the bench declared; throws
  // std::out_of_range when absent. The returned RunResult carries its
  // status — callers that can degrade gracefully check r.ok().
  const RunResult& at(std::string_view workload, std::string_view label) const;
  // True when every run of `workload` completed ok — the benches' guard
  // for skipping a table row instead of crashing on a failed cell (the
  // split still reaches stderr and the exit code via finish_bench).
  bool workload_ok(std::string_view workload) const;
  // Outcome accessors refuse to hand out a failed run's (zeroed) outcome:
  // they throw std::runtime_error carrying the run's status, error kind,
  // and message, so a bench reading a poisoned cell fails loudly instead
  // of plotting garbage.
  const RunOutcome& outcome(std::string_view workload,
                            std::string_view label) const;
  const SimStats& stats(std::string_view workload,
                        std::string_view label) const {
    return outcome(workload, label).stats;
  }

  // Deterministic results section: specs + outcomes in insertion order,
  // independent of scheduling, caching, and timing.
  Json results_json() const;
  // Full document: {"results": [...], "engine": {...}}. The engine section
  // carries the nondeterministic observability data (wall-clock, cache
  // counters) and is excluded from determinism comparisons.
  Json to_json() const;

  // One-line scheduling/caching summary for a bench's stdout footer.
  std::string engine_summary() const;

 private:
  std::vector<RunResult> runs_;
  EngineStats engine_;
};

class ExperimentGrid {
 public:
  // Registers a workload the grid may reference by name. Re-registering
  // the same name replaces the previous definition.
  void add_workload(const Workload& workload);
  void add_workloads(const std::vector<Workload>& workloads);

  // Queues one run. The spec's workload must already be registered.
  void add(RunSpec spec);

  std::size_t size() const { return specs_.size(); }

  // Executes every queued spec and returns results in insertion order.
  // A failing spec is recorded in its RunResult (status + taxonomy +
  // message) while the rest of the grid keeps running; the grid only
  // throws for infrastructure errors outside any one run.
  GridResult run(const GridOptions& options = {}) const;

  // True when the memory tier of `cache` holds the outcome of every queued
  // spec, keyed as run() keys it under `options` (verify and observe
  // stamped on), so run() would serve each from memory. Counts nothing.
  bool memory_resident(const ResultCache& cache,
                       const GridOptions& options) const;

 private:
  std::vector<Workload> workloads_;
  std::map<std::string, std::size_t, std::less<>> index_;  // name -> slot
  std::vector<RunSpec> specs_;
};

// Number of workers `options.jobs` resolves to on this host.
int resolve_jobs(int requested);

// Shared command-line surface for the bench binaries: --jobs, --json,
// --cache-dir, --no-cache, --strict, --keep-going, --run-budget-ms,
// --help.
struct BenchOptions {
  GridOptions grid;
  std::string json_path;  // --json <path>; empty = no JSON export
  // --metrics-out <path>: dump the engine's metrics registry as JSON after
  // the grid drains. The registry is created by parse_bench_options and
  // wired into grid.metrics; empty path = no registry, no export.
  std::string metrics_path;
  std::shared_ptr<obs::MetricsRegistry> metrics;
  // --journal-out <path>: append-only JSONL event journal of the grid's
  // run/batch/cache/phase spans (obs/journal.hpp). Created by
  // parse_bench_options with a fresh root trace and wired into
  // grid.journal/grid.trace; empty path = no journal.
  std::string journal_path;
  std::shared_ptr<obs::Journal> journal;
  // --keep-going: exit 0 even when some runs failed (the failures still
  // show in the results JSON and engine summary). Default is to exit
  // nonzero so CI catches degraded sweeps.
  bool keep_going = false;
};

// Parses bench argv (exits on --help/errors, like OptionParser). The
// default cache dir is $T1000_CACHE_DIR when set, else ".t1000-cache";
// --no-cache disables the on-disk cache entirely.
BenchOptions parse_bench_options(int argc, char** argv,
                                 const std::string& name,
                                 const std::string& summary);

// Renders the standard bench tail: optional --json export plus the engine
// summary line. Returns the bench's exit code: 0 when every run completed
// ok (or --keep-going was given), 1 when the JSON export failed or any
// run failed/timed out/was skipped.
int finish_bench(const GridResult& result, const BenchOptions& options);

}  // namespace t1000
