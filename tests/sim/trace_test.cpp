#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "asmkit/assembler.hpp"
#include "sim/executor.hpp"
#include "support/trace_lockstep.hpp"
#include "workloads/workload.hpp"

namespace t1000 {
namespace {

Program loop_program() {
  return assemble(R"(
        la $t0, buf
        li $s0, 10
  loop: sw $s0, 0($t0)
        lw $t1, 0($t0)
        addu $v0, $v0, $t1
        addiu $s0, $s0, -1
        bgtz $s0, loop
        halt
        .data
  buf:  .space 16
  )");
}

TEST(Trace, RecordsExactCommittedStream) {
  // Replay the recording next to a live reference interpreter and compare
  // every timing-visible field step by step, in both recording modes.
  const Program p = loop_program();
  for (const ExecMode mode : {ExecMode::kUcode, ExecMode::kReference}) {
    const CommittedTrace trace = record_trace(p, nullptr, 1u << 20, mode);
    fuzz::expect_cursor_matches_reference(p, nullptr, trace, "loop");
  }
}

TEST(Trace, SentinelStepIsLastAndSynthetic) {
  // Programs that return from main commit one off-the-end step (the halt
  // sentinel); the timing pipeline fetches its line through the I-cache
  // before it sees the sentinel, so the trace must hold it.
  const Program p = assemble(R"(
        li $v0, 7
        jr $ra
  )");
  const CommittedTrace trace = record_trace(p, nullptr, 1000);
  ASSERT_GE(trace.size(), 1u);
  const DecodedTrace decoded(trace, p);
  TraceCursor cursor(decoded);
  std::vector<DecodedStep> steps;
  while (!cursor.halted()) steps.push_back(cursor.step());
  ASSERT_EQ(steps.size(), trace.size());
  const DecodeRow& last = *steps.back().row;
  EXPECT_EQ(last.index, p.size());
  EXPECT_TRUE(last.sentinel);
  EXPECT_EQ(last.op, Opcode::kHalt);
  // No earlier step may be off the end.
  for (std::size_t i = 0; i + 1 < steps.size(); ++i) {
    EXPECT_LT(steps[i].row->index, p.size());
    EXPECT_FALSE(steps[i].row->sentinel);
  }
}

TEST(Trace, ContentHashIsStableAndDiscriminating) {
  const Program p = loop_program();
  const CommittedTrace a = record_trace(p, nullptr, 1u << 20);
  const CommittedTrace b = record_trace(p, nullptr, 1u << 20);
  EXPECT_EQ(a.content_hash(), b.content_hash());
  EXPECT_EQ(a.size(), b.size());

  const Program q = assemble(R"(
        li $v0, 1
        halt
  )");
  const CommittedTrace c = record_trace(q, nullptr, 1000);
  EXPECT_NE(a.content_hash(), c.content_hash());
}

TEST(Trace, ThrowsWhenProgramDoesNotHalt) {
  const Program p = assemble("loop: j loop");
  EXPECT_THROW(record_trace(p, nullptr, 1000), SimError);
}

TEST(Trace, CursorWalksWholeTraceOnce) {
  const Program p = loop_program();
  const CommittedTrace trace = record_trace(p, nullptr, 1u << 20);
  const DecodedTrace decoded(trace, p);
  TraceCursor cursor(decoded);
  Executor exec(p);
  std::size_t steps = 0;
  while (!cursor.halted()) {
    ASSERT_FALSE(exec.halted()) << "step " << steps;
    const StepInfo want = exec.step();
    EXPECT_EQ(cursor.next_pc(), p.pc_of(want.index));
    const DecodedStep step = cursor.step();
    EXPECT_EQ(step.row, &decoded.table().row(want.index));
    EXPECT_EQ(step.row->index, want.index);
    EXPECT_EQ(step.next_index, want.next_index);
    EXPECT_EQ(step.mem_addr, want.mem_addr);
    EXPECT_EQ(step.mem_size, want.mem_size);
    EXPECT_EQ(step.taken, want.branch_taken);
    ++steps;
  }
  EXPECT_TRUE(exec.halted());
  EXPECT_EQ(steps, trace.size());
}

TEST(Trace, MemoryFootprintIsCompact) {
  // The streams hold one address per memory step, one bit per conditional
  // branch and one target per register jump, plus one element of padding
  // behind the addresses and the taken bits: nothing else, and no slack.
  const Program p = loop_program();
  const CommittedTrace trace = record_trace(p, nullptr, 1u << 20);
  const DecodedTrace decoded(trace, p);
  TraceCursor cursor(decoded);
  std::uint64_t mem = 0;
  std::uint64_t cond = 0;
  std::uint64_t jump_reg = 0;
  while (!cursor.halted()) {
    const DecodedStep step = cursor.step();
    mem += step.row->mem_size != 0;
    cond += step.row->control == ControlKind::kConditional;
    jump_reg += step.row->control == ControlKind::kJumpReg;
  }
  EXPECT_EQ(mem, 20u);
  EXPECT_EQ(cond, 10u);
  EXPECT_LE(trace.memory_bytes(),
            4 * (mem + 1) + 8 * ((cond + 63) / 64 + 1) + 4 * jump_reg);

  // On the paper suite that is well under a byte per committed step.
  for (const Workload& w : all_workloads()) {
    const CommittedTrace t =
        record_trace(workload_program(w), nullptr, w.max_steps);
    EXPECT_LT(t.memory_bytes(), t.size()) << w.name;
  }
}

}  // namespace
}  // namespace t1000
