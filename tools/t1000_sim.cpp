// t1000-sim: cycle-accurate simulation of a program on a configurable
// T1000 machine.
//
//   t1000-sim input.{s,obj} [--pfus N|unlimited] [--reconfig N]
//             [--bimodal] [--multi-cycle-ext] [--ruu N] [--width N]
//             [--stall-breakdown] [--trace-out FILE] [--json FILE]
//
// Records the program's committed trace, then times it by replay.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>

#include "harness/serialize.hpp"
#include "sim/profiler.hpp"
#include "sim/trace.hpp"
#include "tool_common.hpp"
#include "uarch/timing.hpp"

using namespace t1000;

int main(int argc, char** argv) {
  // Numeric flags are only held to what fits the config's int fields;
  // validate() below owns the machine's ranges.
  constexpr long kIntMin = std::numeric_limits<int>::min();
  constexpr long kIntMax = std::numeric_limits<int>::max();
  tools::ToolOptions common;
  std::string pfus = "0";
  long reconfig = 10;
  bool multi_cycle_ext = false;
  bool bimodal = false;
  long ruu = MachineConfig{}.ruu_size;
  long width = 4;
  OptionParser parser = common.make_parser(
      "t1000-sim", "cycle-accurate simulation on a configurable T1000 machine");
  parser.add_string("--pfus", "N|unlimited", "programmable functional units",
                    &pfus);
  parser.add_int("--reconfig", "N", "PFU reconfiguration latency in cycles",
                 &reconfig, kIntMin, kIntMax);
  parser.add_flag("--bimodal", "bimodal branch predictor (default: perfect)",
                  &bimodal);
  parser.add_flag("--multi-cycle-ext", "EXT ops take their full base latency",
                  &multi_cycle_ext);
  parser.add_int("--ruu", "N", "register update unit entries", &ruu,
                 kIntMin, kIntMax);
  parser.add_int("--width", "N", "fetch/decode/issue/commit width", &width,
                 kIntMin, kIntMax);
  bool stall_breakdown = false;
  parser.add_flag("--stall-breakdown",
                  "attribute every non-committing cycle to one stall cause "
                  "and print the breakdown",
                  &stall_breakdown);
  std::string trace_out;
  parser.add_string("--trace-out", "FILE",
                    "write a Chrome/Perfetto trace-event JSON of the "
                    "pipeline (instruction lifecycles, PFU reconfiguration "
                    "spans, profiler hot-region annotations)",
                    &trace_out);
  const std::string input = parser.parse(argc, argv)[0];

  MachineConfig cfg;
  if (pfus == "unlimited") {
    cfg.pfu.count = PfuConfig::kUnlimited;
  } else {
    char* end = nullptr;
    const long count = std::strtol(pfus.c_str(), &end, 0);
    if (end == pfus.c_str() || *end != '\0' || count < kIntMin ||
        count > kIntMax) {
      std::fprintf(stderr, "t1000-sim: bad value '%s' for option '--pfus'\n",
                   pfus.c_str());
      return 2;
    }
    cfg.pfu.count = static_cast<int>(count);
  }
  cfg.pfu.reconfig_latency = static_cast<int>(reconfig);
  cfg.pfu.multi_cycle_ext = multi_cycle_ext;
  if (bimodal) cfg.branch.kind = BranchPredictorKind::kBimodal;
  cfg.ruu_size = static_cast<int>(ruu);
  cfg.fetch_width = cfg.decode_width = cfg.issue_width = cfg.commit_width =
      static_cast<int>(width);
  if (const std::string bad = validate(cfg); !bad.empty()) {
    std::fprintf(stderr, "t1000-sim: bad machine: %s\n", bad.c_str());
    return 2;
  }

  try {
    const LoadedObject obj = tools::load_input(input);
    const ExtInstTable* table =
        obj.ext_table.size() > 0 ? &obj.ext_table : nullptr;
    const CommittedTrace trace =
        record_trace(obj.program, table, kDefaultStepBound);
    SimObservation obs;
    obs.want_trace = !trace_out.empty();
    const bool observe = stall_breakdown || obs.want_trace;
    const SimStats st = simulate({.program = &obj.program,
                                  .ext_table = table,
                                  .trace = &trace,
                                  .machine = cfg,
                                  .observation = observe ? &obs : nullptr});
    std::printf("trace:             %llu steps, %llu KiB, hash %s\n",
                static_cast<unsigned long long>(trace.size()),
                static_cast<unsigned long long>(trace.memory_bytes() / 1024),
                to_hex(trace.content_hash()).c_str());
    std::printf("cycles:            %llu\n",
                static_cast<unsigned long long>(st.cycles));
    std::printf("instructions:      %llu  (IPC %.3f)\n",
                static_cast<unsigned long long>(st.committed), st.ipc());
    std::printf("IL1 miss rate:     %.4f  (%llu/%llu)\n", st.il1.miss_rate(),
                static_cast<unsigned long long>(st.il1.misses),
                static_cast<unsigned long long>(st.il1.accesses));
    std::printf("DL1 miss rate:     %.4f  (%llu/%llu)\n", st.dl1.miss_rate(),
                static_cast<unsigned long long>(st.dl1.misses),
                static_cast<unsigned long long>(st.dl1.accesses));
    std::printf("L2  miss rate:     %.4f\n", st.l2.miss_rate());
    if (st.branch.conditional > 0) {
      std::printf("branch accuracy:   %.4f\n", st.branch.cond_accuracy());
    }
    if (st.pfu.lookups > 0) {
      std::printf("PFU lookups:       %llu  (hits %llu, reconfigs %llu)\n",
                  static_cast<unsigned long long>(st.pfu.lookups),
                  static_cast<unsigned long long>(st.pfu.hits),
                  static_cast<unsigned long long>(st.pfu.reconfigurations));
    }
    if (stall_breakdown) {
      const StallBreakdown& sb = obs.stalls;
      std::printf("stall breakdown:   %llu of %llu cycles stalled (%.1f%%)\n",
                  static_cast<unsigned long long>(sb.stall_cycles()),
                  static_cast<unsigned long long>(sb.cycles),
                  sb.cycles == 0 ? 0.0
                                 : 100.0 *
                                       static_cast<double>(sb.stall_cycles()) /
                                       static_cast<double>(sb.cycles));
      for (int c = 0; c < kNumStallCauses; ++c) {
        if (sb.causes[c] == 0) continue;
        std::printf("  %-14s   %llu  (%.1f%% of stalls)\n",
                    std::string(stall_cause_name(static_cast<StallCause>(c)))
                        .c_str(),
                    static_cast<unsigned long long>(sb.causes[c]),
                    100.0 * static_cast<double>(sb.causes[c]) /
                        static_cast<double>(sb.stall_cycles()));
      }
    }
    if (!trace_out.empty()) {
      // Hot-region annotations come from the functional profiler, exactly
      // as the selection algorithms see them.
      const Profile prof =
          profile_program(obj.program, kDefaultStepBound, table);
      annotate_hot_regions(prof, obj.program, &obs.trace);
      // Compact form: event traces are large and consumed by viewers, not
      // humans.
      std::ofstream f(trace_out, std::ios::binary);
      f << obs.trace.to_json().dump() << '\n';
      if (!f) {
        std::fprintf(stderr, "t1000-sim: cannot write '%s'\n",
                     trace_out.c_str());
        return 1;
      }
      std::printf("trace events:      %llu -> %s\n",
                  static_cast<unsigned long long>(obs.trace.size()),
                  trace_out.c_str());
    }
    Json doc = Json::object();
    doc["tool"] = Json("t1000-sim");
    doc["input"] = Json(input);
    doc["machine"] = to_json(cfg);
    doc["stats"] = to_json(st);
    if (observe) doc["stalls"] = to_json(obs.stalls);
    Json tj = Json::object();
    tj["steps"] = Json(static_cast<std::uint64_t>(trace.size()));
    tj["memory_bytes"] = Json(trace.memory_bytes());
    tj["content_hash"] = Json(to_hex(trace.content_hash()));
    doc["trace"] = std::move(tj);
    return common.finish(doc);
  } catch (...) {
    return tools::finish_current_exception(common, "t1000-sim");
  }
}
