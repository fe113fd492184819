// Execution profiler — the analog of SimpleScalar's `sim_profile` the paper
// uses to mark candidate instructions. For every static instruction it
// collects the dynamic execution count and the widest operand/result bit
// widths observed, which the selection algorithms use to (a) restrict
// candidates to narrow operations (default: <= 18 bits) and (b) weigh
// sequences by their share of total application time.
#pragma once

#include <cstdint>
#include <vector>

#include "asmkit/program.hpp"
#include "isa/extdef.hpp"
#include "obs/trace_event.hpp"
#include "sim/executor.hpp"

namespace t1000 {

struct InstProfile {
  std::uint64_t count = 0;
  int max_src_width = 0;     // widest source register value seen
  int max_result_width = 0;  // widest result value produced
};

struct Profile {
  std::vector<InstProfile> insts;       // indexed by static instruction
  std::uint64_t total_dynamic = 0;      // committed instructions
  std::uint64_t total_base_cycles = 0;  // sum(count * base latency)

  const InstProfile& at(std::int32_t index) const {
    return insts[static_cast<std::size_t>(index)];
  }

  // Estimated base-machine cycles spent in static instruction `index`
  // (the profile-time proxy the selective algorithm's 0.5% threshold is
  // measured against).
  std::uint64_t cycles_of(std::int32_t index, const Program& program) const {
    return at(index).count *
           static_cast<std::uint64_t>(
               base_latency(program.text[static_cast<std::size_t>(index)].op));
  }
};

// Runs `program` to completion (bounded by `max_steps`) and returns the
// profile. Throws SimError if the program does not halt within the bound.
// Profiling runs inside the uop interpreter (sim/ucode.hpp), which folds
// each committed step into the profile without materializing a StepInfo.
Profile profile_program(const Program& program, std::uint64_t max_steps,
                        const ExtInstTable* ext_table = nullptr);

// Profiles from an already-decoded program (sim/ucode.hpp) — what
// analyze_program uses so the decode it caches for trace recording also
// backs its own profiling run.
Profile profile_program(const UopProgram& ucode, std::uint64_t max_steps);

// Marks the profile's hot regions in a pipeline event trace: maximal
// contiguous runs of static instructions whose individual share of
// total_base_cycles is at least `threshold` (default: the paper's 0.5%
// candidate-marking threshold) become instant events on a dedicated
// "hot regions" track, with `ts` = the region's first static index and
// args {first, last, cycles, share}.
void annotate_hot_regions(const Profile& profile, const Program& program,
                          obs::TraceEventLog* trace,
                          double threshold = 0.005);

}  // namespace t1000
