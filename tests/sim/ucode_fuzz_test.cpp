// Randomized differential testing of the uop interpreter.
//
// Drives seeded random programs (tests/support/random_program.hpp) through
// the reference interpreter (ExecMode::kReference) and the pre-decoded uop
// interpreter side by side, requiring step-for-step StepInfo equality and
// identical final architectural state. Deliberate edge cases ride along: a
// branch whose target is exactly program.size() (off the end of the text,
// into the halt sentinel), fall-through into the sentinel via
// `jr $ra`, and an untaken branch whose target lies past the text. Every
// recorded trace is also replayed next to the reference interpreter. The
// faulting corners (an EXT with no table or an unknown Conf id, a taken
// branch past the text) must throw the same SimError at the same step.
//
// Every failure message carries the generating seed; to reproduce, run the
// failing test and feed the seed to build_random_program() under a
// debugger.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "asmkit/program.hpp"
#include "isa/extdef.hpp"
#include "sim/executor.hpp"
#include "sim/trace.hpp"
#include "sim/ucode.hpp"
#include "support/random_program.hpp"
#include "support/trace_lockstep.hpp"

namespace t1000 {
namespace {

using fuzz::build_random_program;

constexpr std::uint64_t kStepBound = 1u << 16;

// Drives the two interpreters in lockstep and asserts equality of every
// StepInfo field, then of the full architectural state.
void expect_lockstep(const Program& p, const std::string& tag) {
  Executor ref(p, nullptr, ExecMode::kReference);
  Executor uop(p, nullptr, ExecMode::kUcode);
  std::uint64_t steps = 0;
  while (!ref.halted() && steps < kStepBound) {
    ASSERT_FALSE(uop.halted()) << tag << " step " << steps;
    const StepInfo want = ref.step();
    const StepInfo got = uop.step();
    ASSERT_EQ(got.index, want.index) << tag << " step " << steps;
    ASSERT_EQ(got.next_index, want.next_index) << tag << " step " << steps;
    ASSERT_EQ(got.ins, want.ins) << tag << " step " << steps;
    ASSERT_EQ(got.is_mem, want.is_mem) << tag << " step " << steps;
    ASSERT_EQ(got.mem_addr, want.mem_addr) << tag << " step " << steps;
    ASSERT_EQ(got.mem_size, want.mem_size) << tag << " step " << steps;
    ASSERT_EQ(got.has_result, want.has_result) << tag << " step " << steps;
    ASSERT_EQ(got.result, want.result) << tag << " step " << steps;
    ASSERT_EQ(got.num_src, want.num_src) << tag << " step " << steps;
    ASSERT_EQ(got.src_vals, want.src_vals) << tag << " step " << steps;
    ASSERT_EQ(got.branch_taken, want.branch_taken)
        << tag << " step " << steps;
    ++steps;
  }
  ASSERT_TRUE(ref.halted()) << tag << ": generator produced a non-halting "
                            << "program (forward-only invariant broken)";
  EXPECT_EQ(uop.halted(), ref.halted()) << tag;
  EXPECT_EQ(uop.pc(), ref.pc()) << tag;
  EXPECT_EQ(uop.steps_executed(), ref.steps_executed()) << tag;
  for (Reg r = 0; r < kNumRegs; ++r) {
    EXPECT_EQ(uop.reg(r), ref.reg(r)) << tag << " $" << int(r);
  }

  // The recorded traces must also agree on their fingerprints.
  const CommittedTrace a =
      record_trace(p, nullptr, kStepBound, ExecMode::kReference);
  const CommittedTrace b =
      record_trace(p, nullptr, kStepBound, ExecMode::kUcode);
  EXPECT_EQ(a.size(), b.size()) << tag;
  EXPECT_EQ(a.checksum(), b.checksum()) << tag;
  EXPECT_EQ(a.content_hash(), b.content_hash()) << tag;
  // ...and replay must rebuild the stream the reference interpreter runs.
  fuzz::expect_cursor_matches_reference(p, nullptr, b, tag);
}

// Drives the two interpreters in lockstep over a program that faults: both
// must throw the same SimError message at the same step and leave the same
// pc and step count behind.
void expect_same_fault(const Program& p, const ExtInstTable* table,
                       const std::string& tag) {
  Executor ref(p, table, ExecMode::kReference);
  Executor uop(p, table, ExecMode::kUcode);
  for (std::uint64_t steps = 0; steps < kStepBound; ++steps) {
    ASSERT_FALSE(ref.halted()) << tag << ": halted without a fault";
    std::string want;
    std::string got;
    try {
      ref.step();
    } catch (const SimError& e) {
      want = e.what();
    }
    try {
      uop.step();
    } catch (const SimError& e) {
      got = e.what();
    }
    ASSERT_EQ(got, want) << tag << " step " << steps;
    if (!want.empty()) {
      EXPECT_EQ(uop.pc(), ref.pc()) << tag;
      EXPECT_EQ(uop.steps_executed(), ref.steps_executed()) << tag;
      return;
    }
  }
  FAIL() << tag << ": no fault within the step bound";
}

TEST(UcodeFuzz, RandomProgramsExecuteIdentically) {
  for (std::uint32_t seed = 1; seed <= 64; ++seed) {
    const Program p = build_random_program(seed);
    expect_lockstep(p, "seed " + std::to_string(seed));
  }
}

TEST(UcodeFuzz, BranchToProgramSizeHitsTheSentinel) {
  // A taken branch whose target is exactly program.size(): off the end of
  // the text, straight onto the halt sentinel. The reference
  // interpreter halts; the uop path must land on kSentinel and do the
  // same, committing the identical off-the-end sentinel step.
  Program p;
  p.text.push_back(make_imm(Opcode::kAddiu, /*rd=*/8, 0, 1));
  p.text.push_back(make_branch1(Opcode::kBgtz, /*rs=*/8,
                                /*target=*/3));  // == size()
  p.text.push_back(make_halt());  // skipped by the taken branch
  expect_lockstep(p, "branch-to-size");
}

TEST(UcodeFuzz, JrRaFallsOffTheEndIdentically) {
  // reset() seeds $ra one past the end of text; `jr $ra` is the clean
  // "return from main" halt. Both interpreters must commit the same
  // synthetic sentinel step.
  Program p;
  p.text.push_back(make_imm(Opcode::kAddiu, /*rd=*/2, 0, 7));
  p.text.push_back(make_jr(/*rs=*/31));
  expect_lockstep(p, "jr-ra");
}

TEST(UcodeFuzz, UntakenBranchPastTheTextFallsThrough) {
  // A branch whose target lies past the text lowers to kInterp: the
  // reference interpreter faults only if it is taken. Untaken, it is an
  // ordinary sequential step of a conditional branch.
  Program p;
  p.text.push_back(make_imm(Opcode::kAddiu, /*rd=*/8, 0, 0));
  p.text.push_back(make_branch1(Opcode::kBgtz, /*rs=*/8, /*target=*/100));
  p.text.push_back(make_imm(Opcode::kAddiu, /*rd=*/2, 0, 5));
  p.text.push_back(make_halt());
  ASSERT_EQ(UopProgram::build(p, nullptr).uops[1].kind, UopKind::kInterp);
  expect_lockstep(p, "untaken-past-text");
}

TEST(UcodeFuzz, ExtWithoutATableFaultsIdentically) {
  Program p;
  p.text.push_back(make_imm(Opcode::kAddiu, /*rd=*/8, 0, 5));
  p.text.push_back(make_ext(/*rd=*/10, /*rs=*/8, /*rt=*/8, /*conf=*/0));
  p.text.push_back(make_halt());
  expect_same_fault(p, nullptr, "ext-no-table");
}

TEST(UcodeFuzz, ExtWithAnUnknownConfFaultsIdentically) {
  ExtInstTable table;
  table.intern(ExtInstDef(
      /*num_inputs=*/2, {MicroOp{Opcode::kAddu, /*dst=*/2, /*a=*/0, /*b=*/1}}));
  Program p;
  p.text.push_back(make_imm(Opcode::kAddiu, /*rd=*/8, 0, 5));
  p.text.push_back(make_ext(/*rd=*/10, /*rs=*/8, /*rt=*/8, /*conf=*/0));
  p.text.push_back(make_ext(/*rd=*/11, /*rs=*/10, /*rt=*/8, /*conf=*/7));
  p.text.push_back(make_halt());
  expect_same_fault(p, &table, "ext-unknown-conf");
}

TEST(UcodeFuzz, TakenBranchPastTheTextFaultsIdentically) {
  Program p;
  p.text.push_back(make_imm(Opcode::kAddiu, /*rd=*/8, 0, 1));
  p.text.push_back(make_branch1(Opcode::kBgtz, /*rs=*/8, /*target=*/100));
  p.text.push_back(make_halt());
  expect_same_fault(p, nullptr, "taken-past-text");
}

TEST(UcodeFuzz, SingleInstructionProgram) {
  Program p;
  p.text.push_back(make_halt());
  expect_lockstep(p, "single-halt");
}

TEST(UcodeFuzz, StepBoundExhaustsIdentically) {
  // An infinite loop must exhaust the step bound identically in both
  // modes: run() returns max_steps with halted() still false.
  Program p;
  p.text.push_back(make_jump(Opcode::kJ, 0));
  Executor ref(p, nullptr, ExecMode::kReference);
  Executor uop(p, nullptr, ExecMode::kUcode);
  EXPECT_EQ(ref.run(1000), 1000u);
  EXPECT_EQ(uop.run(1000), 1000u);
  EXPECT_FALSE(ref.halted());
  EXPECT_FALSE(uop.halted());
  EXPECT_EQ(uop.pc(), ref.pc());
}

}  // namespace
}  // namespace t1000
