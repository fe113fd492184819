// Experiment harness: runs one workload through profile -> select ->
// rewrite -> timing simulation under a machine configuration, validating
// that every rewrite preserves the workload's checksum.
//
// The unit of work is a declarative `RunSpec` ({workload, selector,
// machine, policy, max_cycles}). Direct callers hand a RunSpec to
// `WorkloadExperiment::run`; the bench binaries instead declare whole grids
// of RunSpecs and hand them to the parallel `ExperimentGrid` engine
// (harness/grid.hpp), which shares the expensive per-workload analysis and
// memoizes completed outcomes.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/verifier.hpp"
#include "extinst/rewrite.hpp"
#include "extinst/select.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "sim/trace.hpp"
#include "uarch/timing.hpp"
#include "workloads/workload.hpp"

namespace t1000 {

// Optional observability sinks for the experiment's internal phases.
// When `metrics` is set, each phase's wall-clock lands in a per-phase
// latency histogram (`exp.phase_ms|phase=decode/record/replay/verify`;
// the grid engine adds `phase=cache` for its cache operations). When
// `journal` is set, each phase emits a begin/end span pair parented
// under the calling thread's current TraceContext (obs/journal.hpp) —
// this is how one serve request's trace reaches the phases without
// every signature in between carrying a context. Both sinks are
// borrowed, never owned, and must outlive the experiment; an empty
// ExperimentObs (the default) makes every hook a no-op.
struct ExperimentObs {
  obs::MetricsRegistry* metrics = nullptr;
  obs::Journal* journal = nullptr;
};

// Shared bucket bounds for the `exp.phase_ms|phase=...` histograms: the
// registry aborts on a bounds mismatch for one name, so every creation
// site funnels through phase_histogram().
obs::Histogram* phase_histogram(obs::MetricsRegistry* metrics,
                                std::string_view phase);

enum class Selector {
  kNone,       // plain superscalar baseline
  kGreedy,     // Section 4
  kSelective,  // Section 5
};

// Stable lowercase names ("none"/"greedy"/"selective"), used by JSON
// serialization and cache keys.
std::string_view selector_name(Selector selector);
// Returns false (and leaves `out` untouched) for unknown names.
bool selector_from_name(std::string_view name, Selector* out);

// One declarative experiment: everything needed to reproduce a single
// (workload, selector, machine) simulation. Value-semantic and hashable by
// content, which is what makes grid scheduling and result memoization
// possible.
struct RunSpec {
  std::string workload;  // registered workload name (grid engine lookup)
  std::string label;     // series/column label, e.g. "2 PFUs" (grid lookup)
  Selector selector = Selector::kNone;
  MachineConfig machine;
  SelectPolicy policy;
  std::uint64_t max_cycles = 1ull << 32;  // timing-simulation bound
  // Opt-in pre-flight static verification (analysis/verifier.hpp): the
  // selection and rewrite are verified before any timing simulation, and a
  // failed verification aborts the run with VerifyError (surfaced by the
  // grid as RunErrorKind::kVerify). Part of the run's identity: verified
  // and unverified runs occupy distinct result-cache entries, so a cache
  // hit under verify=true is an identical, previously-verified
  // configuration.
  bool verify = false;
  // Opt-in stall-cause attribution (uarch/timing.hpp): the timing run is
  // observed, and the outcome carries a StallBreakdown charging every
  // non-committing cycle to one cause. Observation never changes SimStats
  // (pinned by tests), but — like verify — the flag is part of the run's
  // identity so observed and unobserved runs occupy distinct result-cache
  // entries and a cached observed run can round-trip its breakdown.
  bool observe = false;
};

struct RunOutcome {
  SimStats stats;
  int num_configs = 0;     // distinct extended instructions
  int num_apps = 0;        // rewrite sites
  std::vector<int> lengths;    // per config, micro-ops
  std::vector<int> lut_costs;  // per config, estimated LUTs
  std::uint32_t checksum = 0;  // functional $v0 (validated)
  // Identity of the committed trace the timing run replayed: its length in
  // functional steps and its content fingerprint (sim/trace.hpp).
  std::uint64_t trace_steps = 0;
  std::uint64_t trace_hash = 0;
  // Stall-cause attribution, filled when the run was observed
  // (RunSpec::observe); serialized with the outcome so cached observed
  // runs keep their breakdown.
  bool observed = false;
  StallBreakdown stalls;
};

// Per-workload experiment context; the (expensive) profile + extraction is
// computed once and shared across machine configurations.
class WorkloadExperiment {
 public:
  explicit WorkloadExperiment(const Workload& workload,
                              ExperimentObs obs = {});

  // The analysis pointers reference owned members; moving would dangle them.
  WorkloadExperiment(const WorkloadExperiment&) = delete;
  WorkloadExperiment& operator=(const WorkloadExperiment&) = delete;

  const Workload& workload() const { return workload_; }
  const AnalyzedProgram& analysis() const { return analysis_; }

  // The analysis a spec with this extract policy selects from. Extraction
  // is shape-sensitive (ExtractPolicy::max_width/max_inputs/max_outputs
  // gate which sites exist at all), so each distinct policy gets its own
  // memoized AnalyzedProgram; the default policy resolves to the eagerly
  // built `analysis()` without re-profiling. Thread-safe like the rest of
  // the memoization (once-guarded), and the reference stays valid for the
  // experiment's lifetime.
  const AnalyzedProgram& analysis_for(const ExtractPolicy& policy) const;

  // Runs the workload under `spec` (spec.workload/label are carried for the
  // caller's bookkeeping and ignored here). For kSelective,
  // `spec.policy.num_pfus` should match spec.machine.pfu.count (the
  // selection must know the budget it is compiling for); the
  // selective_spec() factory keeps the two in sync. Throws SimError if a
  // rewritten program's checksum diverges from the baseline.
  //
  // Timing runs replay the committed trace shared by every spec with the
  // same (selector, policy): functional execution — and for rewritten
  // programs the selection and rewrite — is paid once, then any number of
  // machine configurations are swept by replay. Each distinct replay is
  // itself run once (see TraceCounters::shared_replays).
  //
  // const; internal memoization is mutex/once-guarded: concurrent run()
  // calls on one experiment are safe, which the grid engine relies on.
  RunOutcome run(const RunSpec& spec) const;

  // Batched execution: times every spec as one lane over the shared
  // prepared trace, each through the same replay memo as run(). Every
  // spec must share one batch identity (RunIdentity::batch_key — same
  // selector/policy/verify; machine, max_cycles, and observe vary per
  // lane); throws std::invalid_argument otherwise. Lane outcomes are
  // byte-identical to N sequential run() calls. Failures are per-lane:
  // a lane that throws (cycle bound, failed verification) carries its
  // exception in `error` while the other lanes complete — the grid's
  // fault isolation passes through unchanged.
  struct BatchRunOutcome {
    RunOutcome outcome;        // valid when !error
    std::exception_ptr error;  // null on success
  };
  std::vector<BatchRunOutcome> run_batch(
      const std::vector<RunSpec>& specs) const;

  // The shared immutable inputs `spec`'s timing run replays: the (possibly
  // rewritten) program, its EXT table (null when the program has none),
  // and the committed trace. Exposed for differential testing and tools;
  // the pointers stay valid for the experiment's lifetime.
  struct PreparedView {
    const Program* program = nullptr;
    const ExtInstTable* table = nullptr;
    const CommittedTrace* trace = nullptr;
    // The pre-decoded uop stream the trace was recorded through
    // (sim/ucode.hpp); differential tests re-execute from it directly.
    const UopProgram* ucode = nullptr;
  };
  PreparedView prepared(const RunSpec& spec) const;

  // Static verification of `spec`'s prepared run (analysis/verifier.hpp):
  // module checks for the baseline, the full selection/rewrite legality and
  // equivalence battery for rewritten programs. Memoized per (selector,
  // policy) alongside the prepared run itself — the report's deterministic
  // part is identical for every spec sharing a preparation. Does not throw
  // on diagnostics; callers decide (run() throws VerifyError on a failed
  // report when spec.verify is set).
  const VerifyReport& verify(const RunSpec& spec) const;

  // Trace-sharing observability: how many distinct (selector, policy)
  // traces were recorded, how many run()/prepared() calls were served
  // from an already-recorded trace, and how many timing runs took their
  // statistics from an earlier replay with the same replay key instead of
  // replaying (sel4 and sel_unl on a selection of at most four configs).
  struct TraceCounters {
    std::uint64_t recorded = 0;
    std::uint64_t reused = 0;
    std::uint64_t shared_replays = 0;
  };
  TraceCounters trace_counters() const {
    return {traces_recorded_.load(), trace_reuses_.load(),
            shared_replays_.load()};
  }

  // Verification observability: distinct preparations actually verified
  // (memoized verify() executions) and the wall-clock they cost — the
  // grid's `--verify` overhead, reported in its engine summary.
  struct VerifyCounters {
    std::uint64_t reports = 0;
    double wall_ms = 0.0;
  };
  VerifyCounters verify_counters() const {
    return {verify_reports_.load(),
            static_cast<double>(verify_wall_us_.load()) / 1000.0};
  }

 private:
  // Everything derived from one (selector, policy): built once, immutable
  // afterwards, shared by every machine configuration swept over it.
  struct PreparedRun {
    Selection selection;     // empty table for the baseline
    bool rewritten = false;  // false = time the pristine program
    RewriteResult rewrite;   // owned; meaningful when rewritten
    // Pre-decoded uop stream for the program this preparation executes
    // (rewrite.program + selection.table when rewritten, else the
    // experiment's baseline ucode). Decoded once under the once_flag,
    // shared read-only by every machine configuration swept over it.
    std::shared_ptr<const UopProgram> ucode;
    CommittedTrace trace;
    RunOutcome partial;  // all fields except stats (filled per machine)
  };
  struct PreparedSlot {
    std::once_flag once;
    std::shared_ptr<const PreparedRun> run;
    std::exception_ptr error;
  };
  struct VerifySlot {
    std::once_flag once;
    std::shared_ptr<const VerifyReport> report;
    std::exception_ptr error;
  };
  struct AnalysisSlot {
    std::once_flag once;
    std::shared_ptr<const AnalyzedProgram> analysis;
    std::exception_ptr error;
  };
  // One timing run, shared by every spec with its replay key.
  struct ReplaySlot {
    std::once_flag once;
    SimStats stats;
    StallBreakdown stalls;  // when the key is observed
    std::exception_ptr error;
  };

  const PreparedRun& prepared_run(const RunSpec& spec) const;
  std::shared_ptr<const PreparedRun> build_prepared(const RunSpec& spec) const;
  // Fills out->stats (and out->stalls when spec.observe) from the timing
  // run of `prep`'s trace under `spec`, replaying it only for the first
  // spec with its replay key; rethrows that replay's failure.
  void replay(const PreparedRun& prep, const RunSpec& spec,
              RunOutcome* out) const;

  Workload workload_;
  ExperimentObs obs_;
  Program program_;
  AnalyzedProgram analysis_;       // default extract policy
  std::string default_extract_key_;
  std::uint32_t base_checksum_ = 0;

  mutable std::mutex prep_mu_;  // guards the memoization map shapes
  mutable std::map<std::string, std::shared_ptr<PreparedSlot>> prepared_;
  mutable std::map<std::string, std::shared_ptr<VerifySlot>> verified_;
  mutable std::map<std::string, std::shared_ptr<AnalysisSlot>> analyses_;
  mutable std::map<std::string, std::shared_ptr<ReplaySlot>> replays_;
  mutable std::atomic<std::uint64_t> traces_recorded_{0};
  mutable std::atomic<std::uint64_t> trace_reuses_{0};
  mutable std::atomic<std::uint64_t> shared_replays_{0};
  mutable std::atomic<std::uint64_t> verify_reports_{0};
  mutable std::atomic<std::uint64_t> verify_wall_us_{0};
};

// cycles(baseline) / cycles(variant): >1 means the variant is faster. This
// is the paper's "execution time speedup" axis in Figures 2 and 6.
double speedup(const SimStats& baseline, const SimStats& variant);

// The machine configurations used throughout the paper's evaluation.
MachineConfig baseline_machine();
MachineConfig pfu_machine(int pfus, int reconfig_latency);

// RunSpec factories for the paper's three standard configurations. `pfus`
// accepts PfuConfig::kUnlimited; selective_spec() keeps policy.num_pfus
// consistent with the machine's PFU count.
RunSpec baseline_spec(std::string workload, std::string label = "baseline");
RunSpec greedy_spec(std::string workload, std::string label, int pfus,
                    int reconfig_latency);
RunSpec selective_spec(std::string workload, std::string label, int pfus,
                       int reconfig_latency);

}  // namespace t1000
