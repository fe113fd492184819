// The static decode table (sim/trace.hpp, DecodeTable) that every timing
// path reads instead of decoding each replayed step: its rows must hold
// exactly what decoding each instruction derives, on every bundled program
// as the selectors rewrite it — including the control kind, static target
// and access width replay rebuilds each step's successor and address from.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "isa/instruction.hpp"
#include "isa/opcode.hpp"
#include "sim/trace.hpp"
#include "workloads/workload.hpp"

namespace t1000 {
namespace {

TEST(Trace, DecodeTableMatchesInstructionDecode) {
  // Every row must hold what decoding the instruction at its index
  // derives, for every bundled workload as written and as rewritten by
  // both selectors (so EXT rows are covered), and the row past the text
  // must be the off-the-end halt, the only row flagged as the sentinel.
  std::vector<Workload> workloads = all_workloads();
  for (const auto* suite : {&extended_workloads(), &compiled_workloads()}) {
    workloads.insert(workloads.end(), suite->begin(), suite->end());
  }
  int ext_rows = 0;
  for (const Workload& w : workloads) {
    const WorkloadExperiment experiment(w);
    for (const RunSpec& spec : {baseline_spec(w.name),
                                greedy_spec(w.name, "greedy", 4, 10),
                                selective_spec(w.name, "selective", 4, 10)}) {
      const Program& p = *experiment.prepared(spec).program;
      const DecodeTable table(p);
      ASSERT_EQ(table.size(), p.text.size() + 1) << w.name;
      for (std::int32_t index = 0; index <= p.size(); ++index) {
        const Instruction ins =
            index < p.size() ? p.text[static_cast<std::size_t>(index)]
                             : make_halt();
        const DecodeRow& row = table.row(index);
        const std::string at = w.name + "/" + spec.label + " row " +
                               std::to_string(index);
        EXPECT_EQ(row.pc, p.pc_of(index)) << at;
        EXPECT_EQ(row.index, index) << at;
        EXPECT_EQ(row.sentinel, index == p.size()) << at;
        EXPECT_EQ(row.op, ins.op) << at;
        EXPECT_EQ(row.conf, ins.conf) << at;
        EXPECT_EQ(row.fu, fu_class(ins.op)) << at;
        const SrcRegs srcs = src_regs(ins);
        ASSERT_EQ(row.srcs.count, srcs.count) << at;
        for (int k = 0; k < srcs.count; ++k) {
          EXPECT_EQ(row.srcs.reg[k], srcs.reg[k]) << at;
        }
        const DstRegs dsts = dst_regs(ins);
        EXPECT_EQ(row.dst, dsts.count > 0 ? dsts.reg[0] : -1) << at;
        EXPECT_EQ(row.dst2, dsts.count > 1 ? dsts.reg[1] : -1) << at;
        EXPECT_EQ(row.is_ctrl, is_control(ins.op) && ins.op != Opcode::kHalt)
            << at;
        EXPECT_EQ(row.is_store, is_store(ins.op)) << at;
        EXPECT_EQ(row.is_ext, ins.op == Opcode::kExt) << at;
        if (row.is_ext) ++ext_rows;
        // The successor rule and access width replay derives from the row.
        const OpKind kind = op_kind(ins.op);
        ControlKind control = ControlKind::kSequential;
        if (kind == OpKind::kBranch1 || kind == OpKind::kBranch2) {
          control = ControlKind::kConditional;
        } else if (kind == OpKind::kJump) {
          control = ControlKind::kJump;
        } else if (kind == OpKind::kJumpReg) {
          control = ControlKind::kJumpReg;
        } else if (kind == OpKind::kHalt) {
          control = ControlKind::kStop;
        }
        EXPECT_EQ(row.control, control) << at;
        const bool static_target = control == ControlKind::kConditional ||
                                   control == ControlKind::kJump;
        EXPECT_EQ(row.target, static_target ? ins.imm : 0) << at;
        std::uint8_t width = 0;
        if (kind == OpKind::kLoad || kind == OpKind::kStore) {
          // The width letter of the mnemonic: lw/sw, lh/lhu/sh, lb/lbu/sb.
          const char w = mnemonic(ins.op)[1];
          width = w == 'w' ? 4 : w == 'h' ? 2 : 1;
        }
        EXPECT_EQ(row.mem_size, width) << at;
      }
      const DecodeRow& sentinel = table.row(p.size());
      EXPECT_EQ(sentinel.op, Opcode::kHalt) << w.name;
      EXPECT_FALSE(sentinel.is_ctrl) << w.name;
      EXPECT_EQ(sentinel.control, ControlKind::kStop) << w.name;
    }
  }
  EXPECT_GT(ext_rows, 0);
}

}  // namespace
}  // namespace t1000
