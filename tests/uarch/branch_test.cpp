#include "uarch/branch.hpp"

#include <gtest/gtest.h>

#include "asmkit/assembler.hpp"
#include "uarch/timing.hpp"

namespace t1000 {
namespace {

Opcode beq() { return make_branch2(Opcode::kBeq, 1, 2, 0).op; }

TEST(BranchPredictor, PerfectAlwaysCorrect) {
  BranchPredictor bp({.kind = BranchPredictorKind::kPerfect});
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(bp.predict_and_update(beq(), 5, i % 2 == 0, 7));
  }
  EXPECT_EQ(bp.stats().conditional, 0u);  // perfect mode does not count
}

TEST(BranchPredictor, StaticNotTakenMatchesOutcome) {
  BranchPredictor bp({.kind = BranchPredictorKind::kStaticNotTaken});
  EXPECT_TRUE(bp.predict_and_update(beq(), 5, false, 7));
  EXPECT_FALSE(bp.predict_and_update(beq(), 5, true, 7));
  EXPECT_EQ(bp.stats().conditional, 2u);
  EXPECT_EQ(bp.stats().cond_mispredicts, 1u);
}

TEST(BranchPredictor, BimodalLearnsABiasedBranch) {
  BranchPredictor bp({.kind = BranchPredictorKind::kBimodal});
  int mispredicts = 0;
  for (int i = 0; i < 100; ++i) {
    if (!bp.predict_and_update(beq(), 5, true, 7)) ++mispredicts;
  }
  EXPECT_LE(mispredicts, 2);  // warms up within two updates
  EXPECT_GT(bp.stats().cond_accuracy(), 0.97);
}

TEST(BranchPredictor, BimodalToleratesOneOffFlips) {
  // Taken, taken, taken, not-taken pattern: 2-bit hysteresis keeps the
  // strongly-taken state through single flips.
  BranchPredictor bp({.kind = BranchPredictorKind::kBimodal});
  for (int i = 0; i < 4; ++i) bp.predict_and_update(beq(), 5, true, 7);
  EXPECT_FALSE(bp.predict_and_update(beq(), 5, false, 7));  // the flip misses
  EXPECT_TRUE(bp.predict_and_update(beq(), 5, true, 7));    // but state held
}

TEST(BranchPredictor, SeparateCountersPerPc) {
  BranchPredictor bp(
      {.kind = BranchPredictorKind::kBimodal, .bimodal_entries = 1024});
  for (int i = 0; i < 8; ++i) {
    bp.predict_and_update(beq(), 100, true, 7);
    bp.predict_and_update(beq(), 101, false, 7);
  }
  EXPECT_TRUE(bp.predict_and_update(beq(), 100, true, 7));
  EXPECT_TRUE(bp.predict_and_update(beq(), 101, false, 7));
}

TEST(BranchPredictor, IndirectJumpLastTarget) {
  BranchPredictor bp({.kind = BranchPredictorKind::kBimodal});
  const Opcode jr = make_jr(31).op;
  EXPECT_FALSE(bp.predict_and_update(jr, 9, true, 50));  // cold
  EXPECT_TRUE(bp.predict_and_update(jr, 9, true, 50));   // repeats
  EXPECT_FALSE(bp.predict_and_update(jr, 9, true, 60));  // target changed
  EXPECT_EQ(bp.stats().indirect, 3u);
  EXPECT_EQ(bp.stats().indirect_mispredicts, 2u);
}

TEST(BranchPredictor, DirectJumpsAlwaysPredicted) {
  BranchPredictor bp({.kind = BranchPredictorKind::kBimodal});
  EXPECT_TRUE(bp.predict_and_update(make_jump(Opcode::kJ, 3).op, 9, true, 3));
  EXPECT_TRUE(bp.predict_and_update(make_jump(Opcode::kJal, 3).op, 9, true, 3));
}

// --- pipeline integration ---

TEST(BranchTiming, MispredictionsCostCycles) {
  // A data-dependent unpredictable branch (alternates every iteration the
  // bimodal predictor mistracks about half the time in this pattern).
  const Program p = assemble(R"(
        li $s0, 2000
        li $t0, 0
  loop: andi $t1, $t0, 1
        beq $t1, $zero, even
        addiu $v0, $v0, 3
        j next
  even: addiu $v0, $v0, 5
  next: addiu $t0, $t0, 1
        addiu $s0, $s0, -1
        bgtz $s0, loop
        halt
  )");
  MachineConfig perfect;
  MachineConfig bimodal;
  bimodal.branch.kind = BranchPredictorKind::kBimodal;
  const SimStats a = simulate({.program = &p, .machine = perfect});
  const SimStats b = simulate({.program = &p, .machine = bimodal});
  EXPECT_GT(b.cycles, a.cycles);
  EXPECT_GT(b.branch.conditional, 3000u);
  EXPECT_EQ(a.committed, b.committed);  // same work either way
}

TEST(BranchTiming, PredictableLoopNearlyMatchesPerfect) {
  const Program p = assemble(R"(
        li $s0, 5000
  loop: addiu $v0, $v0, 1
        addiu $s0, $s0, -1
        bgtz $s0, loop
        halt
  )");
  MachineConfig perfect;
  MachineConfig bimodal;
  bimodal.branch.kind = BranchPredictorKind::kBimodal;
  const SimStats a = simulate({.program = &p, .machine = perfect});
  const SimStats b = simulate({.program = &p, .machine = bimodal});
  EXPECT_GT(b.branch.cond_accuracy(), 0.999);
  EXPECT_LT(static_cast<double>(b.cycles),
            static_cast<double>(a.cycles) * 1.02);
}

TEST(BranchTiming, StaticNotTakenIsSlowestOnLoops) {
  const Program p = assemble(R"(
        li $s0, 3000
  loop: addiu $v0, $v0, 1
        addiu $s0, $s0, -1
        bgtz $s0, loop
        halt
  )");
  MachineConfig bimodal;
  bimodal.branch.kind = BranchPredictorKind::kBimodal;
  MachineConfig nt;
  nt.branch.kind = BranchPredictorKind::kStaticNotTaken;
  const SimStats b = simulate({.program = &p, .machine = bimodal});
  const SimStats n = simulate({.program = &p, .machine = nt});
  EXPECT_GT(n.cycles, b.cycles);  // every loop back edge mispredicts
}

}  // namespace
}  // namespace t1000

namespace t1000 {
namespace {

TEST(BranchPredictor, GshareLearnsAlternatingPattern) {
  // taken/not-taken alternation defeats bimodal (stuck near 50%) but is a
  // trivial pattern for gshare's history-indexed counters.
  BranchPredictor bimodal({.kind = BranchPredictorKind::kBimodal});
  BranchPredictor gshare({.kind = BranchPredictorKind::kGshare});
  const Opcode ins = make_branch2(Opcode::kBeq, 1, 2, 0).op;
  int bimodal_miss = 0;
  int gshare_miss = 0;
  for (int i = 0; i < 400; ++i) {
    const bool taken = i % 2 == 0;
    if (!bimodal.predict_and_update(ins, 7, taken, 9)) ++bimodal_miss;
    if (!gshare.predict_and_update(ins, 7, taken, 9)) ++gshare_miss;
  }
  EXPECT_LT(gshare_miss, 20);
  EXPECT_GT(bimodal_miss, 100);
}

TEST(BranchTiming, GshareWorksInThePipeline) {
  const Program p = assemble(R"(
        li $s0, 2000
        li $t0, 0
  loop: andi $t1, $t0, 1
        beq $t1, $zero, even
        addiu $v0, $v0, 3
        j next
  even: addiu $v0, $v0, 5
  next: addiu $t0, $t0, 1
        addiu $s0, $s0, -1
        bgtz $s0, loop
        halt
  )");
  MachineConfig bimodal;
  bimodal.branch.kind = BranchPredictorKind::kBimodal;
  MachineConfig gshare;
  gshare.branch.kind = BranchPredictorKind::kGshare;
  const SimStats b = simulate({.program = &p, .machine = bimodal});
  const SimStats g = simulate({.program = &p, .machine = gshare});
  // The alternating inner branch is history-predictable.
  EXPECT_GT(g.branch.cond_accuracy(), b.branch.cond_accuracy());
  EXPECT_LT(g.cycles, b.cycles);
}

}  // namespace
}  // namespace t1000
