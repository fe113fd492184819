// t1000-run: functional (architectural) execution of a program.
//
//   t1000-run input.{s,obj} [--max-steps N] [--trace N] [--regs]
//             [--json FILE]
//
// Prints the executed instruction count and the $v0/$v1 result registers;
// --trace N echoes the first N executed instructions, --regs dumps the
// final register file.
#include <cstdio>

#include "sim/executor.hpp"
#include "sim/trace.hpp"
#include "tool_common.hpp"

using namespace t1000;

int main(int argc, char** argv) {
  tools::ToolOptions common;
  long max_steps = static_cast<long>(kDefaultStepBound);
  long trace = 0;
  bool dump_regs = false;
  OptionParser parser = common.make_parser(
      "t1000-run", "functional (architectural) execution of a program");
  parser.add_int("--max-steps", "N", "stop after N instructions", &max_steps);
  parser.add_int("--trace", "N", "echo the first N executed instructions",
                 &trace);
  parser.add_flag("--regs", "dump the final register file", &dump_regs);
  const std::string input = parser.parse(argc, argv)[0];
  try {
    const LoadedObject obj = tools::load_input(input);
    Executor exec(obj.program,
                  obj.ext_table.size() > 0 ? &obj.ext_table : nullptr);
    long traced = 0;
    while (!exec.halted() &&
           exec.steps_executed() < static_cast<std::uint64_t>(max_steps)) {
      const StepInfo info = exec.step();
      if (traced < trace) {
        std::printf("%6lld  @%-5d %s\n",
                    static_cast<long long>(exec.steps_executed()), info.index,
                    to_string(info.ins).c_str());
        ++traced;
      }
    }
    if (!exec.halted()) {
      std::fprintf(stderr, "stopped after %lld steps without halting\n",
                   static_cast<long long>(exec.steps_executed()));
      return 1;
    }
    std::printf("halted after %lld instructions\n",
                static_cast<long long>(exec.steps_executed()));
    std::printf("$v0 = 0x%08X  $v1 = 0x%08X\n", exec.reg(2), exec.reg(3));
    if (dump_regs) {
      for (int r = 0; r < kNumRegs; ++r) {
        std::printf("%-6s 0x%08X%s",
                    std::string(reg_name(static_cast<Reg>(r))).c_str(),
                    exec.reg(static_cast<Reg>(r)), r % 4 == 3 ? "\n" : "  ");
      }
    }
    Json doc = Json::object();
    doc["tool"] = Json("t1000-run");
    doc["input"] = Json(input);
    doc["instructions"] = Json(exec.steps_executed());
    doc["v0"] = Json(exec.reg(2));
    doc["v1"] = Json(exec.reg(3));
    return common.finish(doc);
  } catch (...) {
    return tools::finish_current_exception(common, "t1000-run");
  }
}
