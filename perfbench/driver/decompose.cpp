#include "decompose.hpp"

#include <algorithm>
#include <exception>
#include <memory>

#include "analysis/verifier.hpp"
#include "extinst/rewrite.hpp"
#include "extinst/select.hpp"
#include "harness/identity.hpp"
#include "harness/serialize.hpp"
#include "sim/trace.hpp"
#include "sim/ucode.hpp"
#include "uarch/timing.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

using namespace t1000;

std::string spec_key(const RunSpec& spec) {
  return spec.workload + "/" + spec.label;
}

namespace {

// One (selector, policy) preparation of a workload, as WorkloadExperiment
// builds it: selection, rewrite, uop decode and the recorded trace.
struct Prep {
  bool rewritten = false;
  Selection selection;
  RewriteResult rewrite;
  std::unique_ptr<UopProgram> ucode;
  CommittedTrace trace;
};

template <typename T>
std::vector<std::string> first_seen(const std::vector<RunSpec>& specs,
                                    T key_of) {
  std::vector<std::string> keys;
  for (const RunSpec& spec : specs) {
    const std::string key = key_of(spec);
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
      keys.push_back(key);
    }
  }
  return keys;
}

void time_group(const std::vector<const RunSpec*>& group,
                const Program& program, const ExtInstTable* table,
                const CommittedTrace& trace, const DecomposeOptions& options,
                SpanLog& log, Decomposition* out) {
  for (const RunSpec* spec : group) {
    const std::string key = spec_key(*spec);
    SimStats stats;
    {
      const Span span(log, "uarch.replay");
      stats = simulate({.program = &program,
                        .ext_table = table,
                        .trace = &trace,
                        .machine = spec->machine,
                        .max_cycles = spec->max_cycles});
    }
    SimObservation observation;
    SimStats observed;
    {
      const Span span(log, "uarch.observed");
      observed = simulate({.program = &program,
                           .ext_table = table,
                           .trace = &trace,
                           .machine = spec->machine,
                           .max_cycles = spec->max_cycles,
                           .observation = &observation});
    }
    const std::string stats_json = to_json(stats).dump();
    if (to_json(observed).dump() != stats_json) {
      out->mismatches.push_back(key + ": observed replay changed SimStats");
    }
    out->stats[key] = stats_json;
    out->stalls[key] = to_json(observation.stalls).dump();
    out->cycles += stats.cycles;
    out->committed += stats.committed;
    out->pfu_reconfigs += stats.pfu.reconfigurations;
    out->stall_cycles += observation.stalls.stall_cycles();
    out->ext_reconfig_cycles +=
        observation.stalls.of(StallCause::kExtReconfig);
  }
  if (!options.batch || group.size() < 2) return;

  BatchSimRequest request;
  request.program = &program;
  request.ext_table = table;
  request.trace = &trace;
  for (const RunSpec* spec : group) {
    request.lanes.push_back({.machine = spec->machine,
                             .max_cycles = spec->max_cycles,
                             .observation = nullptr});
  }
  std::vector<BatchLaneResult> lanes;
  {
    const Span span(log, "uarch.batch");
    lanes = simulate_replay_batch(request);
  }
  out->batch_lanes += lanes.size();
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const std::string key = spec_key(*group[i]);
    if (lanes[i].error || to_json(lanes[i].stats).dump() != out->stats[key]) {
      out->mismatches.push_back(key + ": batch lane differs from replay");
    }
  }
  // What the batch path allocates on top of the trace; outside any span.
  out->decoded_bytes_max = std::max(out->decoded_bytes_max,
                                    DecodedTrace(trace, program).memory_bytes());
}

void decompose_workload(const Workload& workload,
                        const std::vector<RunSpec>& specs,
                        const DecomposeOptions& options, SpanLog& log,
                        Decomposition* out) {
  Program program;
  {
    const Span span(log, "asmkit.assemble");
    program = workload_program(workload);
  }
  AnalyzedProgram analysis;
  {
    const Span span(log, "extinst.analyze");
    analysis = analyze_program(program, workload.max_steps);
  }
  CommittedTrace base_trace;
  {
    const Span span(log, "sim.record");
    base_trace = record_trace(*analysis.ucode, workload.max_steps);
  }
  out->trace_bytes += base_trace.memory_bytes();
  out->steps += base_trace.size();

  const std::vector<std::string> prep_keys =
      first_seen(specs, RunIdentity::preparation_key);
  for (const std::string& prep_key : prep_keys) {
    std::vector<const RunSpec*> group;
    for (const RunSpec& spec : specs) {
      if (RunIdentity::preparation_key(spec) == prep_key) {
        group.push_back(&spec);
      }
    }
    const RunSpec& first = *group.front();
    Prep prep;
    if (first.selector != Selector::kNone) {
      prep.rewritten = true;
      {
        const Span span(log, "extinst.select");
        prep.selection = first.selector == Selector::kGreedy
                             ? select_greedy(analysis, first.policy.lut_budget)
                             : select_selective(analysis, first.policy);
      }
      {
        const Span span(log, "extinst.rewrite");
        prep.rewrite = rewrite_program(program, prep.selection.apps);
      }
      {
        const Span span(log, "sim.decode");
        prep.ucode = std::make_unique<UopProgram>(UopProgram::build(
            prep.rewrite.program, &prep.selection.table));
      }
      {
        const Span span(log, "sim.record");
        prep.trace = record_trace(*prep.ucode, workload.max_steps);
      }
      if (prep.trace.checksum() != base_trace.checksum()) {
        out->mismatches.push_back(workload.name + ": rewrite changed checksum");
      }
      out->configs += static_cast<std::uint64_t>(prep.selection.num_configs());
      out->apps += prep.selection.apps.size();
      out->trace_bytes += prep.trace.memory_bytes();
      out->steps += prep.trace.size();
    }
    if (options.verify) {
      const VerifyOptions verify_options = verify_options_for(first.policy);
      const Span span(log, "analysis.verify");
      const VerifyReport report =
          prep.rewritten ? verify_selection(analysis, prep.selection,
                                            prep.rewrite, verify_options)
                         : verify_module(program, nullptr, verify_options);
      out->verify_errors += static_cast<std::uint64_t>(report.errors());
    }
    const Program& timed = prep.rewritten ? prep.rewrite.program : program;
    const ExtInstTable* table =
        prep.rewritten ? &prep.selection.table : nullptr;
    time_group(group, timed, table, prep.rewritten ? prep.trace : base_trace,
               options, log, out);
  }
}

}  // namespace

Decomposition decompose(const std::vector<RunSpec>& specs,
                        const DecomposeOptions& options, SpanLog& log) {
  Decomposition out;
  for (const std::string& name :
       first_seen(specs, [](const RunSpec& s) { return s.workload; })) {
    std::vector<RunSpec> mine;
    for (const RunSpec& spec : specs) {
      if (spec.workload == name) mine.push_back(spec);
    }
    const Workload* workload = find_workload(name);
    try {
      if (workload == nullptr) throw std::runtime_error("unknown workload");
      decompose_workload(*workload, mine, options, log, &out);
    } catch (const std::exception& e) {
      out.mismatches.push_back(name + ": " + e.what());
    }
  }
  return out;
}

}  // namespace perfbench
