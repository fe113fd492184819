#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "asmkit/assembler.hpp"
#include "sim/executor.hpp"

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
  const Program p = loop_program();
  const CommittedTrace trace = record_trace(p, nullptr, 1u << 20);

  // Replay the same program on a fresh executor and compare every
  // timing-visible StepInfo field step by step.
  Executor exec(p);
  std::size_t i = 0;
  while (!exec.halted()) {
    const StepInfo want = exec.step();
    ASSERT_LT(i, trace.size());
    const StepInfo got = trace.step_at(i, p);
    EXPECT_EQ(got.index, want.index) << "step " << i;
    EXPECT_EQ(got.next_index, want.next_index) << "step " << i;
    EXPECT_EQ(got.ins.op, want.ins.op) << "step " << i;
    EXPECT_EQ(got.is_mem, want.is_mem) << "step " << i;
    EXPECT_EQ(got.mem_addr, want.mem_addr) << "step " << i;
    EXPECT_EQ(got.mem_size, want.mem_size) << "step " << i;
    EXPECT_EQ(got.branch_taken, want.branch_taken) << "step " << i;
    ++i;
  }
  EXPECT_EQ(i, trace.size());
  EXPECT_EQ(trace.checksum(), exec.reg(kRegV0));
}

TEST(Trace, DropsArchitecturalValues) {
  // The SoA projection keeps only what the pipeline reads; operand and
  // result values must come back zeroed (see the trace.hpp file comment).
  const Program p = loop_program();
  const CommittedTrace trace = record_trace(p, nullptr, 1u << 20);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const StepInfo info = trace.step_at(i, p);
    EXPECT_FALSE(info.has_result);
    EXPECT_EQ(info.result, 0u);
    EXPECT_EQ(info.num_src, 0);
    EXPECT_EQ(info.src_vals[0], 0u);
    EXPECT_EQ(info.src_vals[1], 0u);
  }
}

TEST(Trace, SentinelStepIsLastAndSynthetic) {
  // Programs that return from main commit one off-the-end step (the halt
  // sentinel); the direct pipeline performs an I-cache access for it, so
  // stat-exact replay requires it in the trace.
  const Program p = assemble(R"(
        li $v0, 7
        jr $ra
  )");
  const CommittedTrace trace = record_trace(p, nullptr, 1000);
  ASSERT_GE(trace.size(), 1u);
  const std::size_t last = trace.size() - 1;
  EXPECT_GE(trace.index_at(last), static_cast<std::int32_t>(p.size()));
  const StepInfo info = trace.step_at(last, p);
  EXPECT_EQ(info.ins.op, Opcode::kHalt);
  // No earlier step may be off the end.
  for (std::size_t i = 0; i < last; ++i) {
    EXPECT_LT(trace.index_at(i), static_cast<std::int32_t>(p.size()));
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
  std::size_t steps = 0;
  while (!cursor.halted()) {
    const StepInfo want = trace.step_at(steps, p);
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
  EXPECT_EQ(steps, trace.size());
}

TEST(Trace, MemoryFootprintIsCompact) {
  const Program p = loop_program();
  const CommittedTrace trace = record_trace(p, nullptr, 1u << 20);
  // 14 bytes per step of payload; capacity-based accounting may round up
  // by the vector growth factor but never below the payload.
  EXPECT_GE(trace.memory_bytes(), trace.size() * 14);
  EXPECT_LT(trace.memory_bytes(), trace.size() * 14 * 3 + 64);
}

}  // namespace
}  // namespace t1000
