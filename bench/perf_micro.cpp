// Infrastructure microbenchmarks (google-benchmark): throughput of the
// functional simulator, the timing model, the extractor, the selection
// algorithms, and the experiment engine. These gate the practicality of
// the toolchain itself rather than reproducing a paper figure.
#include <benchmark/benchmark.h>

#include <filesystem>

#include "analysis/dataflow.hpp"
#include "analysis/equiv.hpp"
#include "analysis/verifier.hpp"
#include "harness/grid.hpp"
#include "sim/executor.hpp"
#include "sim/profiler.hpp"
#include "sim/trace.hpp"
#include "sim/ucode.hpp"

namespace t1000 {
namespace {

const Workload& bench_workload() { return *find_workload("gsm_dec"); }

void BM_FunctionalSim(benchmark::State& state) {
  const Program p = workload_program(bench_workload());
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    Executor e(p);
    instructions += e.run(1u << 24);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
}
BENCHMARK(BM_FunctionalSim)->Unit(benchmark::kMillisecond);

// Cost of capturing the committed trace: functional execution, the
// transient index column and the sparse streams (taken bits, addresses,
// register-jump targets), and the content hash folded over the logical
// columns in finalize() (sim/trace.hpp). Compare with BM_FunctionalSim for
// the pure recording overhead.
void BM_RecordTrace(benchmark::State& state) {
  const Program p = workload_program(bench_workload());
  std::uint64_t steps = 0;
  for (auto _ : state) {
    const CommittedTrace trace = record_trace(p, nullptr, 1u << 24);
    steps += trace.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_RecordTrace)->Unit(benchmark::kMillisecond);

// Recording through an already-decoded uop stream — the harness's steady
// state, where one UopProgram per preparation is decoded once and shared
// (AnalyzedProgram::ucode / PreparedRun::ucode). The delta against
// BM_RecordTrace is the decode cost record_trace(program, ...) pays per
// call; the delta against BM_FunctionalSim is the pure cost of committing
// the steps to the trace and hashing it.
void BM_ExecuteUops(benchmark::State& state) {
  const Program p = workload_program(bench_workload());
  const UopProgram ucode = UopProgram::build(p, /*ext_table=*/nullptr);
  std::uint64_t steps = 0;
  for (auto _ : state) {
    const CommittedTrace trace = record_trace(ucode, 1u << 24);
    steps += trace.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_ExecuteUops)->Unit(benchmark::kMillisecond);

// The profiling pass analyze_program runs over its decoded program: the
// same interpreter folding each committed step into a Profile. Items are
// committed instructions, so the rate reads as the analysis ns/step.
void BM_ProfileWorkload(benchmark::State& state) {
  const Program p = workload_program(bench_workload());
  const UopProgram ucode = UopProgram::build(p, /*ext_table=*/nullptr);
  std::uint64_t steps = 0;
  for (auto _ : state) {
    const Profile prof = profile_program(ucode, 1u << 24);
    benchmark::DoNotOptimize(prof.insts.data());
    steps += prof.total_dynamic;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_ProfileWorkload)->Unit(benchmark::kMillisecond);

// Timing run over a pre-recorded trace — the per-config marginal cost of
// a grid sweep. A run without a trace records first: BM_RecordTrace plus
// this.
void BM_ReplayTimingSim(benchmark::State& state) {
  const Program p = workload_program(bench_workload());
  const CommittedTrace trace = record_trace(p, nullptr, 1u << 24);
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    const SimStats st = simulate({.program = &p, .trace = &trace, .machine = baseline_machine()});
    instructions += st.committed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
}
BENCHMARK(BM_ReplayTimingSim)->Unit(benchmark::kMillisecond);

// The idle-heavy regime of the Section 5.2 reconfiguration sweep: gsm_dec
// under greedy selection on two PFUs at 500 cycles per reconfiguration,
// ~7.2 M simulated cycles for ~0.14 M committed instructions, most of them
// spent waiting on PFU loads. BM_ReplayTimingSim is the busy counterpart.
void BM_ReplayReconfig500(benchmark::State& state) {
  const WorkloadExperiment exp(bench_workload());
  const RunSpec spec =
      greedy_spec(bench_workload().name, "reconfig500", 2, 500);
  const WorkloadExperiment::PreparedView view = exp.prepared(spec);
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    const SimStats st = simulate({.program = view.program,
                                  .ext_table = view.table,
                                  .trace = view.trace,
                                  .machine = spec.machine});
    benchmark::DoNotOptimize(st);
    instructions += st.committed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
}
BENCHMARK(BM_ReplayReconfig500)->Unit(benchmark::kMillisecond);

// The MSHR-bound regime: gsm_dec on a 4096-entry window behind one MSHR,
// memory 100000 cycles away, ~2.16 M simulated cycles. Loads and stores
// wait for the one miss in flight to drain while the window fills behind
// them; the clock jumps to each miss's completion.
void BM_ReplayMshrCap(benchmark::State& state) {
  const Program p = workload_program(bench_workload());
  const CommittedTrace trace = record_trace(p, nullptr, 1u << 24);
  MachineConfig machine = baseline_machine();
  machine.ruu_size = 4096;
  machine.max_outstanding_misses = 1;
  machine.memory_latency = 100000;
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    const SimStats st =
        simulate({.program = &p, .trace = &trace, .machine = machine});
    benchmark::DoNotOptimize(st);
    instructions += st.committed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
}
BENCHMARK(BM_ReplayMshrCap)->Unit(benchmark::kMillisecond);

// Config-parallel batched replay: N machine configurations timed as lanes
// of one simulate_replay_batch call over a shared pre-recorded trace.
// items/s counts committed instructions across all lanes. Each lane runs
// the single-replay pipeline to completion over one shared decode table,
// so per lane this should match BM_ReplayTimingSim; a gap is batch
// overhead.
void BM_ReplayBatch(benchmark::State& state) {
  const Program p = workload_program(bench_workload());
  const CommittedTrace trace = record_trace(p, nullptr, 1u << 24);
  const int lanes = static_cast<int>(state.range(0));
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    BatchSimRequest request;
    request.program = &p;
    request.trace = &trace;
    request.lanes.resize(static_cast<std::size_t>(lanes));
    for (int i = 0; i < lanes; ++i) {
      MachineConfig cfg = baseline_machine();
      cfg.branch.mispredict_penalty += i;  // distinct but comparable lanes
      request.lanes[static_cast<std::size_t>(i)].machine = cfg;
    }
    for (const BatchLaneResult& lane : simulate_replay_batch(request)) {
      instructions += lane.stats.committed;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
}
BENCHMARK(BM_ReplayBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Observed timing run (stall attribution, no event trace)
// over a pre-recorded trace: the marginal cost of RunSpec::observe over
// BM_ReplayTimingSim. The unobserved pipeline compiles the observation
// layer out entirely, so BM_ReplayTimingSim itself is the "free when
// disabled" reference.
void BM_StallAttribution(benchmark::State& state) {
  const Program p = workload_program(bench_workload());
  const CommittedTrace trace = record_trace(p, nullptr, 1u << 24);
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    SimObservation obs;
    const SimStats st = simulate({.program = &p,
                                  .trace = &trace,
                                  .machine = baseline_machine(),
                                  .observation = &obs});
    benchmark::DoNotOptimize(obs.stalls);
    instructions += st.committed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
}
BENCHMARK(BM_StallAttribution)->Unit(benchmark::kMillisecond);

// Full event-trace recording (per-instruction lifecycle slices) over a
// pre-recorded committed trace, plus the Chrome trace-event JSON
// serialization — the cost of --trace-out.
void BM_EmitTrace(benchmark::State& state) {
  const Program p = workload_program(bench_workload());
  const CommittedTrace trace = record_trace(p, nullptr, 1u << 24);
  std::uint64_t events = 0;
  for (auto _ : state) {
    SimObservation obs;
    obs.want_trace = true;
    simulate({.program = &p,
              .trace = &trace,
              .machine = baseline_machine(),
              .observation = &obs});
    benchmark::DoNotOptimize(obs.trace.to_json());
    events += obs.trace.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EmitTrace)->Unit(benchmark::kMillisecond);

void BM_ProfileAndExtract(benchmark::State& state) {
  const Program p = workload_program(bench_workload());
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyze_program(p, 1u << 24));
  }
}
BENCHMARK(BM_ProfileAndExtract)->Unit(benchmark::kMillisecond);

void BM_SelectGreedy(benchmark::State& state) {
  const Program p = workload_program(bench_workload());
  const AnalyzedProgram ap = analyze_program(p, 1u << 24);
  for (auto _ : state) {
    benchmark::DoNotOptimize(select_greedy(ap));
  }
}
BENCHMARK(BM_SelectGreedy)->Unit(benchmark::kMicrosecond);

void BM_SelectSelective(benchmark::State& state) {
  const Program p = workload_program(bench_workload());
  const AnalyzedProgram ap = analyze_program(p, 1u << 24);
  SelectPolicy policy;
  policy.num_pfus = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(select_selective(ap, policy));
  }
}
BENCHMARK(BM_SelectSelective)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMicrosecond);

void BM_RewriteProgram(benchmark::State& state) {
  const Program p = workload_program(bench_workload());
  const AnalyzedProgram ap = analyze_program(p, 1u << 24);
  const Selection sel = select_greedy(ap);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rewrite_program(p, sel.apps));
  }
}
BENCHMARK(BM_RewriteProgram)->Unit(benchmark::kMicrosecond);

// Full static verification of a selected+rewritten workload — the price a
// grid point pays under --verify before it simulates (wf.* module checks,
// per-application legality, the width audit, and the translation validator
// whose symbolic proof is the one equivalence proof).
void BM_VerifyWorkload(benchmark::State& state) {
  const Program p = workload_program(bench_workload());
  const AnalyzedProgram ap = analyze_program(p, 1u << 24);
  const Selection sel = select_greedy(ap);
  const RewriteResult rr = rewrite_program(p, sel.apps);
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify_selection(ap, sel, rr));
  }
}
BENCHMARK(BM_VerifyWorkload)->Unit(benchmark::kMicrosecond);

// The translation-validation slice alone (equiv.* rules: index-map walk,
// survivor byte-identity, branch retargeting, symbolic per-application
// proof, dead-kill leak scan). The delta against BM_VerifyWorkload is the
// cost of the wf.* module checks (decoded-form check included), legality
// recomputation and the width audit.
void BM_ValidateRewrite(benchmark::State& state) {
  const Program p = workload_program(bench_workload());
  const AnalyzedProgram ap = analyze_program(p, 1u << 24);
  const Selection sel = select_greedy(ap);
  const RewriteResult rr = rewrite_program(p, sel.apps);
  for (auto _ : state) {
    VerifyReport report;
    check_translation(ap, sel, rr, report);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_ValidateRewrite)->Unit(benchmark::kMicrosecond);

// Per-instruction backward liveness over the rewritten program — the
// fixed-point analysis the dead-kill proof leans on. Priced separately
// because it is the only super-linear piece of the validator.
void BM_Liveness(benchmark::State& state) {
  const Program p = workload_program(bench_workload());
  const AnalyzedProgram ap = analyze_program(p, 1u << 24);
  const Selection sel = select_greedy(ap);
  const RewriteResult rr = rewrite_program(p, sel.apps);
  const Cfg cfg = Cfg::build(rr.program);
  for (auto _ : state) {
    benchmark::DoNotOptimize(InstLiveness(rr.program, cfg));
  }
}
BENCHMARK(BM_Liveness)->Unit(benchmark::kMicrosecond);

ExperimentGrid engine_grid() {
  ExperimentGrid grid;
  grid.add_workload(bench_workload());
  const std::string name = bench_workload().name;
  grid.add(baseline_spec(name));
  for (const int pfus : {1, 2, 4}) {
    grid.add(selective_spec(name, std::to_string(pfus) + "pfu", pfus, 10));
  }
  return grid;
}

// Cold grid: every point simulated (shared analysis, no disk cache).
void BM_GridEngineCold(benchmark::State& state) {
  const ExperimentGrid grid = engine_grid();
  GridOptions options;
  options.jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid.run(options));
  }
}
BENCHMARK(BM_GridEngineCold)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// Warm grid: 100% on-disk cache hits; measures the memoization path
// (program hash + key + JSON load) that re-running a bench pays per point.
void BM_GridEngineMemoized(benchmark::State& state) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "t1000-perf-micro-cache";
  fs::remove_all(dir);
  const ExperimentGrid grid = engine_grid();
  GridOptions options;
  options.jobs = 1;
  options.cache_dir = dir.string();
  grid.run(options);  // populate
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid.run(options));
  }
  fs::remove_all(dir);
}
BENCHMARK(BM_GridEngineMemoized)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace t1000

BENCHMARK_MAIN();
