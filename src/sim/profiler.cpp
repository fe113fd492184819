#include "sim/profiler.hpp"

#include <string>

#include "sim/ucode.hpp"

namespace t1000 {

// Both overloads run the uop interpreter's profile policy (sim/ucode.cpp),
// which folds each committed step straight into the Profile.
Profile profile_program(const Program& program, std::uint64_t max_steps,
                        const ExtInstTable* ext_table) {
  return profile_program(UopProgram::build(program, ext_table), max_steps);
}

Profile profile_program(const UopProgram& ucode, std::uint64_t max_steps) {
  Executor exec(ucode);
  Profile prof;
  exec.profile_ucode(prof, max_steps);
  return prof;
}

void annotate_hot_regions(const Profile& profile, const Program& program,
                          obs::TraceEventLog* trace, double threshold) {
  // Track group 3; the pipeline tracer uses 1 (RUU) and 2 (PFU bank).
  constexpr int kHotRegionPid = 3;
  if (profile.total_base_cycles == 0 || program.size() == 0) return;
  const double total = static_cast<double>(profile.total_base_cycles);
  bool named = false;
  std::int32_t start = -1;
  std::uint64_t region_cycles = 0;
  const auto flush = [&](std::int32_t end) {  // region is [start, end)
    if (start < 0) return;
    if (!named) {
      trace->name_process(kHotRegionPid, "hot regions");
      named = true;
    }
    Json args = Json::object();
    args["first"] = Json(start);
    args["last"] = Json(end - 1);
    args["cycles"] = Json(region_cycles);
    args["share"] = Json(static_cast<double>(region_cycles) / total);
    trace->instant("hot[" + std::to_string(start) + ".." +
                       std::to_string(end - 1) + "]",
                   static_cast<std::uint64_t>(start), kHotRegionPid, 0,
                   std::move(args));
    start = -1;
    region_cycles = 0;
  };
  for (std::int32_t i = 0; i < program.size(); ++i) {
    const std::uint64_t cycles = profile.cycles_of(i, program);
    if (static_cast<double>(cycles) / total >= threshold) {
      if (start < 0) start = i;
      region_cycles += cycles;
    } else {
      flush(i);
    }
  }
  flush(program.size());
}

}  // namespace t1000
