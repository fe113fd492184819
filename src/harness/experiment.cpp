#include "harness/experiment.hpp"

#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include "harness/identity.hpp"
#include "harness/json.hpp"
#include "harness/serialize.hpp"
#include "sim/trace.hpp"

namespace t1000 {
namespace {

// Memoization key for a prepared run — the shared identity helper's
// preparation grain (see harness/identity.hpp for why machine config is
// deliberately absent).
std::string prep_key(const RunSpec& spec) {
  return RunIdentity::preparation_key(spec);
}

// Memoization key for a shape-sensitive analysis: the extract policy's
// canonical JSON (harness/serialize.cpp), so any future policy field joins
// the key automatically — exactly how RunIdentity handles the result cache.
std::string extract_key(const ExtractPolicy& policy) {
  return to_json(policy).dump();
}

// Memoization key for a timing run: exactly what the pipeline reads. The
// trace's text fingerprint and content hash stand for the program and its
// committed stream (program_hash() would not do: the encoding cannot see a
// MIMO EXT's operands), the definition signatures for the EXT table, and
// the effective machine (uarch/timing.hpp) for the machine, so a bank that
// never evicts shares its run with the unlimited bank.
std::string replay_key(const CommittedTrace& trace, const ExtInstTable* table,
                       const MachineConfig& machine, const RunSpec& spec) {
  Json defs = Json::array();
  if (table != nullptr) {
    for (const ExtInstDef& def : table->defs()) {
      defs.push_back(Json(def.signature()));
    }
  }
  Json key = Json::object();
  key["text"] = Json(to_hex(trace.text_fingerprint()));
  key["trace"] = Json(to_hex(trace.content_hash()));
  key["ext"] = std::move(defs);
  key["machine"] = to_json(machine);
  key["max_cycles"] = Json(spec.max_cycles);
  key["observe"] = Json(spec.observe);
  return key.dump();
}

// RAII phase instrumentation: one histogram observation
// (exp.phase_ms|phase=<name>) plus one journal span (phase.<name>) under
// the calling thread's current trace context. Both sinks optional; an
// empty ExperimentObs costs one steady_clock read per phase.
class PhaseTimer {
 public:
  PhaseTimer(const ExperimentObs& obs, std::string_view phase)
      : obs_(obs),
        phase_(phase),
        span_(obs.journal, obs::current_trace_context(),
              "phase." + std::string(phase)),
        start_(std::chrono::steady_clock::now()) {}

  ~PhaseTimer() {
    if (obs_.metrics == nullptr) return;
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
    phase_histogram(obs_.metrics, phase_)
        ->observe(static_cast<std::uint64_t>(ms));
  }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  const ExperimentObs& obs_;
  std::string_view phase_;
  obs::Journal::SpanScope span_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

obs::Histogram* phase_histogram(obs::MetricsRegistry* metrics,
                                std::string_view phase) {
  if (metrics == nullptr) return nullptr;
  return metrics->histogram(
      "exp.phase_ms|phase=" + std::string(phase),
      {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000});
}

std::string_view selector_name(Selector selector) {
  switch (selector) {
    case Selector::kNone: return "none";
    case Selector::kGreedy: return "greedy";
    case Selector::kSelective: return "selective";
  }
  return "unknown";
}

bool selector_from_name(std::string_view name, Selector* out) {
  for (const Selector s :
       {Selector::kNone, Selector::kGreedy, Selector::kSelective}) {
    if (selector_name(s) == name) {
      *out = s;
      return true;
    }
  }
  return false;
}

WorkloadExperiment::WorkloadExperiment(const Workload& workload,
                                       ExperimentObs obs)
    : workload_(workload), obs_(obs), program_(workload_program(workload)) {
  analysis_ = analyze_program(program_, workload_.max_steps);
  default_extract_key_ = extract_key(analysis_.extract);

  // Record the baseline trace eagerly: it doubles as the functional
  // checksum run every rewritten variant is validated against. The
  // analysis already decoded the baseline program (for profiling); the
  // recording replays that same uop stream.
  auto base = std::make_shared<PreparedRun>();
  base->ucode = analysis_.ucode;
  {
    const PhaseTimer phase(obs_, "record");
    base->trace = record_trace(*base->ucode, workload_.max_steps);
  }
  base_checksum_ = base->trace.checksum();
  base->partial.checksum = base_checksum_;
  base->partial.trace_steps = base->trace.size();
  base->partial.trace_hash = base->trace.content_hash();

  auto slot = std::make_shared<PreparedSlot>();
  // Consume the once_flag so later lookups see the slot as built.
  std::call_once(slot->once, [&] { slot->run = std::move(base); });
  prepared_.emplace("none", std::move(slot));
  traces_recorded_.store(1);
}

const AnalyzedProgram& WorkloadExperiment::analysis_for(
    const ExtractPolicy& policy) const {
  const std::string key = extract_key(policy);
  if (key == default_extract_key_) return analysis_;
  std::shared_ptr<AnalysisSlot> slot;
  {
    std::lock_guard<std::mutex> lock(prep_mu_);
    std::shared_ptr<AnalysisSlot>& entry = analyses_[key];
    if (!entry) entry = std::make_shared<AnalysisSlot>();
    slot = entry;
  }
  std::call_once(slot->once, [&] {
    try {
      slot->analysis = std::make_shared<const AnalyzedProgram>(
          analyze_program(program_, workload_.max_steps, policy));
    } catch (...) {
      slot->error = std::current_exception();
    }
  });
  if (slot->error) std::rethrow_exception(slot->error);
  return *slot->analysis;
}

std::shared_ptr<const WorkloadExperiment::PreparedRun>
WorkloadExperiment::build_prepared(const RunSpec& spec) const {
  // Selection reads the candidate shape from the analysis it selects over
  // (ap.extract is authoritative for the sites), so a spec with a widened
  // extract policy must select from the matching shape-sensitive analysis.
  const AnalyzedProgram& ap = analysis_for(spec.policy.extract);
  auto run = std::make_shared<PreparedRun>();
  {
    // Everything between the analysis and the trace recording — selection,
    // rewrite, uop decode — is the "decode" phase: producing the executable
    // uop stream for this preparation.
    const PhaseTimer phase(obs_, "decode");
    run->selection = spec.selector == Selector::kGreedy
                         ? select_greedy(ap, spec.policy.lut_budget)
                         : select_selective(ap, spec.policy);
    run->rewrite = rewrite_program(program_, run->selection.apps);
    run->rewritten = true;
    // PreparedRun is heap-allocated and immutable once built, so the
    // decoded stream's borrowed pointers (rewrite.program, selection.table)
    // stay valid for as long as the ucode itself is reachable.
    run->ucode = std::make_shared<const UopProgram>(
        UopProgram::build(run->rewrite.program, &run->selection.table));
  }
  {
    const PhaseTimer phase(obs_, "record");
    run->trace = record_trace(*run->ucode, workload_.max_steps);
  }
  if (run->trace.checksum() != base_checksum_) {
    throw SimError("rewrite changed " + workload_.name + " checksum");
  }
  run->partial.checksum = run->trace.checksum();
  run->partial.num_configs = run->selection.num_configs();
  run->partial.num_apps = static_cast<int>(run->selection.apps.size());
  run->partial.lengths = run->selection.lengths;
  run->partial.lut_costs = run->selection.lut_costs;
  run->partial.trace_steps = run->trace.size();
  run->partial.trace_hash = run->trace.content_hash();
  return run;
}

const WorkloadExperiment::PreparedRun& WorkloadExperiment::prepared_run(
    const RunSpec& spec) const {
  std::shared_ptr<PreparedSlot> slot;
  {
    std::lock_guard<std::mutex> lock(prep_mu_);
    std::shared_ptr<PreparedSlot>& entry = prepared_[prep_key(spec)];
    if (!entry) entry = std::make_shared<PreparedSlot>();
    slot = entry;
  }
  bool built = false;
  std::call_once(slot->once, [&] {
    built = true;
    try {
      slot->run = build_prepared(spec);
      traces_recorded_.fetch_add(1);
    } catch (...) {
      slot->error = std::current_exception();
    }
  });
  if (slot->error) std::rethrow_exception(slot->error);
  if (!built) trace_reuses_.fetch_add(1);
  return *slot->run;
}

WorkloadExperiment::PreparedView WorkloadExperiment::prepared(
    const RunSpec& spec) const {
  const PreparedRun& prep = prepared_run(spec);
  PreparedView view;
  view.program = prep.rewritten ? &prep.rewrite.program : &program_;
  view.table = prep.rewritten ? &prep.selection.table : nullptr;
  view.trace = &prep.trace;
  view.ucode = prep.ucode.get();
  return view;
}

const VerifyReport& WorkloadExperiment::verify(const RunSpec& spec) const {
  const PreparedRun& prep = prepared_run(spec);
  std::shared_ptr<VerifySlot> slot;
  {
    std::lock_guard<std::mutex> lock(prep_mu_);
    std::shared_ptr<VerifySlot>& entry = verified_[prep_key(spec)];
    if (!entry) entry = std::make_shared<VerifySlot>();
    slot = entry;
  }
  std::call_once(slot->once, [&] {
    const PhaseTimer phase(obs_, "verify");
    const auto start = std::chrono::steady_clock::now();
    try {
      const VerifyOptions options = verify_options_for(spec.policy);
      slot->report = std::make_shared<VerifyReport>(
          prep.rewritten
              ? verify_selection(analysis_for(spec.policy.extract),
                                 prep.selection, prep.rewrite, options)
              : verify_module(program_, nullptr, options));
    } catch (...) {
      slot->error = std::current_exception();
    }
    verify_reports_.fetch_add(1);
    verify_wall_us_.fetch_add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
  });
  if (slot->error) std::rethrow_exception(slot->error);
  return *slot->report;
}

void WorkloadExperiment::replay(const PreparedRun& prep, const RunSpec& spec,
                                RunOutcome* out) const {
  const Program& program = prep.rewritten ? prep.rewrite.program : program_;
  const ExtInstTable* table = prep.rewritten ? &prep.selection.table : nullptr;
  const MachineConfig machine = effective_machine(spec.machine, table);
  const std::string key = replay_key(prep.trace, table, machine, spec);
  std::shared_ptr<ReplaySlot> slot;
  {
    std::lock_guard<std::mutex> lock(prep_mu_);
    std::shared_ptr<ReplaySlot>& entry = replays_[key];
    if (!entry) entry = std::make_shared<ReplaySlot>();
    slot = entry;
  }
  bool replayed = false;
  std::call_once(slot->once, [&] {
    replayed = true;
    try {
      SimObservation observation;
      slot->stats = simulate(
          {.program = &program,
           .ext_table = table,
           .trace = &prep.trace,
           .machine = machine,
           .max_cycles = spec.max_cycles,
           .observation = spec.observe ? &observation : nullptr});
      slot->stalls = observation.stalls;
    } catch (...) {
      slot->error = std::current_exception();
    }
  });
  if (!replayed) shared_replays_.fetch_add(1);
  if (slot->error) std::rethrow_exception(slot->error);
  out->stats = slot->stats;
  if (spec.observe) {
    out->observed = true;
    out->stalls = slot->stalls;
  }
}

RunOutcome WorkloadExperiment::run(const RunSpec& spec) const {
  const PreparedRun& prep = prepared_run(spec);
  if (spec.verify) {
    const VerifyReport& report = verify(spec);
    if (!report.ok()) {
      throw VerifyError(workload_.name + " (" +
                        std::string(selector_name(spec.selector)) +
                        ") failed verification: " + report.summary());
    }
  }
  RunOutcome out = prep.partial;
  const PhaseTimer phase(obs_, "replay");
  replay(prep, spec, &out);
  return out;
}

std::vector<WorkloadExperiment::BatchRunOutcome> WorkloadExperiment::run_batch(
    const std::vector<RunSpec>& specs) const {
  std::vector<BatchRunOutcome> out(specs.size());
  if (specs.empty()) return out;
  const RunSpec& first = specs.front();
  for (const RunSpec& spec : specs) {
    if (RunIdentity::batch_key(spec) != RunIdentity::batch_key(first)) {
      throw std::invalid_argument(
          "run_batch: specs do not share a batch identity (see "
          "RunIdentity::batch_key)");
    }
  }
  // One prepared_run call per spec, exactly as N sequential run() calls
  // would make: the first may record the trace, the rest count as reuses,
  // keeping the trace counters identical across the two paths.
  const PreparedRun& prep = prepared_run(first);
  for (std::size_t i = 1; i < specs.size(); ++i) prepared_run(specs[i]);
  if (first.verify) {
    const VerifyReport& report = verify(first);
    if (!report.ok()) {
      // Verification is a property of the shared preparation: every lane
      // fails identically, as N sequential runs would.
      const std::string what =
          workload_.name + " (" + std::string(selector_name(first.selector)) +
          ") failed verification: " + report.summary();
      for (BatchRunOutcome& o : out) {
        o.error = std::make_exception_ptr(VerifyError(what));
      }
      return out;
    }
  }
  const PhaseTimer phase(obs_, "replay");
  for (std::size_t i = 0; i < specs.size(); ++i) {
    RunOutcome outcome = prep.partial;
    try {
      replay(prep, specs[i], &outcome);
      out[i].outcome = std::move(outcome);
    } catch (...) {
      out[i].error = std::current_exception();
    }
  }
  return out;
}

double speedup(const SimStats& baseline, const SimStats& variant) {
  return static_cast<double>(baseline.cycles) /
         static_cast<double>(variant.cycles);
}

MachineConfig baseline_machine() { return MachineConfig{}; }

MachineConfig pfu_machine(int pfus, int reconfig_latency) {
  MachineConfig cfg;
  cfg.pfu.count = pfus;
  cfg.pfu.reconfig_latency = reconfig_latency;
  return cfg;
}

RunSpec baseline_spec(std::string workload, std::string label) {
  RunSpec spec;
  spec.workload = std::move(workload);
  spec.label = std::move(label);
  spec.selector = Selector::kNone;
  spec.machine = baseline_machine();
  return spec;
}

RunSpec greedy_spec(std::string workload, std::string label, int pfus,
                    int reconfig_latency) {
  RunSpec spec;
  spec.workload = std::move(workload);
  spec.label = std::move(label);
  spec.selector = Selector::kGreedy;
  spec.machine = pfu_machine(pfus, reconfig_latency);
  return spec;
}

RunSpec selective_spec(std::string workload, std::string label, int pfus,
                       int reconfig_latency) {
  RunSpec spec;
  spec.workload = std::move(workload);
  spec.label = std::move(label);
  spec.selector = Selector::kSelective;
  spec.machine = pfu_machine(pfus, reconfig_latency);
  spec.policy.num_pfus =
      pfus == PfuConfig::kUnlimited ? kUnlimitedPfus : pfus;
  return spec;
}

}  // namespace t1000
