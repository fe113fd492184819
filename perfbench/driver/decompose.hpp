// The traced run's layer decomposition: runs a list of RunSpecs through
// the library layers one public call at a time, the way
// WorkloadExperiment does inside the grid, with a span around each call.
//
//   asmkit.assemble   workload_program
//   extinst.analyze   analyze_program (profile, extraction, baseline decode)
//   extinst.select    select_greedy / select_selective
//   extinst.rewrite   rewrite_program
//   sim.decode        UopProgram::build
//   sim.record        record_trace
//   analysis.verify   verify_selection / verify_module
//   uarch.replay      simulate (one unobserved replay per spec)
//   uarch.observed    simulate with a SimObservation (stall attribution)
//   uarch.batch       simulate_replay_batch over specs sharing a trace
//
// It also returns each spec's SimStats so the caller can hold the grid's
// results to the decomposition's, and the exact counts of the work done.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "spans.hpp"

namespace perfbench {

struct DecomposeOptions {
  bool verify = false;  // run the static verifier on every preparation
  bool batch = false;   // also time shared-trace groups as one batch
};

struct Decomposition {
  // Keyed by spec_key(): compact SimStats JSON of the unobserved replay and
  // the StallBreakdown JSON of the observed one.
  std::map<std::string, std::string> stats;
  std::map<std::string, std::string> stalls;

  std::uint64_t configs = 0;  // extended instructions selected
  std::uint64_t apps = 0;     // rewrite sites
  std::uint64_t steps = 0;    // committed steps recorded, over all traces
  std::uint64_t cycles = 0;
  std::uint64_t committed = 0;
  std::uint64_t stall_cycles = 0;
  std::uint64_t ext_reconfig_cycles = 0;
  std::uint64_t pfu_reconfigs = 0;
  std::uint64_t batch_lanes = 0;
  std::uint64_t verify_errors = 0;
  std::uint64_t trace_bytes = 0;        // all traces, as the grid holds them
  std::uint64_t decoded_bytes_max = 0;  // largest DecodedTrace of a batch

  // Internal disagreements (checksum, observed vs unobserved, batch lane vs
  // single replay, a layer that threw), one line each.
  std::vector<std::string> mismatches;
};

std::string spec_key(const t1000::RunSpec& spec);

Decomposition decompose(const std::vector<t1000::RunSpec>& specs,
                        const DecomposeOptions& options, SpanLog& log);

}  // namespace perfbench
