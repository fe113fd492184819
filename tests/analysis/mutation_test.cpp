// Mutation tests for the selection-level verifier rules: start from a clean
// program whose greedy selection verifies with zero diagnostics, apply one
// targeted corruption, and prove the matching rule fires. Each rule class
// carries a distinct rule_id so a regression in one check cannot hide behind
// another.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/verifier.hpp"
#include "asmkit/assembler.hpp"
#include "extinst/rewrite.hpp"
#include "extinst/select.hpp"
#include "hwcost/lut_model.hpp"
#include "sim/profiler.hpp"

namespace t1000 {
namespace {

bool has_rule(const VerifyReport& report, std::string_view rule) {
  return std::any_of(report.diagnostics.begin(), report.diagnostics.end(),
                     [&](const Diagnostic& d) { return d.rule_id == rule; });
}

// $t1 = 9, $t3 = 11, $t4 = 12, $t5 = 13, $t6 = 14, $t7 = 15.
constexpr Reg kT1 = 9, kT3 = 11, kT4 = 12, kT6 = 14;

class MutationTest : public ::testing::Test {
 protected:
  // One hot three-op chain (sll -> addu -> xor) with two external inputs
  // ($t3, $t1), one output ($t7), and dead intermediates ($t5, $t6).
  void SetUp() override {
    program_ = assemble(R"(
        li $t1, 100
        li $t3, 3
        li $t0, 0
  loop: sll $t5, $t3, 4
        addu $t6, $t5, $t1
        xor $t7, $t6, $t1
        sw  $t7, 0($sp)
        addiu $t0, $t0, 1
        slti $at, $t0, 8
        bne $at, $zero, loop
        halt
    )");
    analyze();
    sel_ = select_greedy(ap_);
    rr_ = rewrite_program(program_, sel_.apps);
    ASSERT_GE(sel_.apps.size(), 1u);
  }

  void analyze() {
    ap_.program = &program_;
    ap_.cfg = Cfg::build(program_);
    ap_.liveness = compute_liveness(program_, ap_.cfg);
    ap_.profile = profile_program(program_, 1u << 22);
    ap_.sites =
        extract_sites(program_, ap_.cfg, ap_.liveness, ap_.profile, {});
  }

  VerifyReport verify(const VerifyOptions& options = {}) {
    return verify_selection(ap_, sel_, rr_, options);
  }

  // First selected member position whose original instruction matches `op`.
  std::int32_t member_with_op(Opcode op) {
    for (const Application& app : sel_.apps) {
      for (const std::int32_t p : app.positions) {
        if (program_.text[static_cast<std::size_t>(p)].op == op) return p;
      }
    }
    return -1;
  }

  Program program_;
  AnalyzedProgram ap_;
  Selection sel_;
  RewriteResult rr_;
};

TEST_F(MutationTest, CleanSelectionVerifiesWithZeroDiagnostics) {
  const VerifyReport report = verify();
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.diagnostics.empty()) << report.summary();
  EXPECT_GE(report.stats.apps, 1);
  // The translation validator discharges its symbolic proof, which covers
  // the whole input space, for every application (analysis/equiv.hpp).
  EXPECT_EQ(report.stats.translation_proven, report.stats.apps);
}

TEST_F(MutationTest, FlippedOpcodeBreaksEquivalence) {
  const std::int32_t p = member_with_op(Opcode::kAddu);
  ASSERT_GE(p, 0);
  program_.text[static_cast<std::size_t>(p)].op = Opcode::kSubu;
  const VerifyReport report = verify();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_rule(report, "equiv.symbolic")) << report.summary();
}

TEST_F(MutationTest, NonEligibleOpcodeIsFlagged) {
  // mul shares the Alu3 shape but is not PFU-eligible (multi-cycle IntMul).
  const std::int32_t p = member_with_op(Opcode::kAddu);
  ASSERT_GE(p, 0);
  program_.text[static_cast<std::size_t>(p)].op = Opcode::kMul;
  EXPECT_TRUE(has_rule(verify(), "ext.opcode-class"));
}

TEST_F(MutationTest, OperandWidenedPastCeilingIsFlagged) {
  const std::int32_t p = sel_.apps[0].positions[0];
  ap_.profile.insts[static_cast<std::size_t>(p)].max_src_width = 25;
  EXPECT_TRUE(has_rule(verify(), "ext.width"));
}

TEST_F(MutationTest, ThirdInputClaimIsFlagged) {
  sel_.apps[0].num_inputs = 3;
  EXPECT_TRUE(has_rule(verify(), "ext.inputs"));
}

TEST_F(MutationTest, GenuineThirdLiveInIsFlagged) {
  // Redirect the xor member's second read from $t1 (already an input) to
  // $t4: the window now needs three external registers.
  const std::int32_t p = member_with_op(Opcode::kXor);
  ASSERT_GE(p, 0);
  ASSERT_EQ(program_.text[static_cast<std::size_t>(p)].rt, kT1);
  program_.text[static_cast<std::size_t>(p)].rt = kT4;
  EXPECT_TRUE(has_rule(verify(), "ext.inputs"));
}

TEST_F(MutationTest, CorruptBranchTargetInRewrittenIsFlagged) {
  Program& q = rr_.program;
  bool corrupted = false;
  for (Instruction& ins : q.text) {
    if (is_branch(ins.op)) {
      ins.imm = q.size() + 3;
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted);
  EXPECT_TRUE(has_rule(verify(), "wf.branch-target"));
}

TEST_F(MutationTest, InflatedRecordedLutCostIsFlagged) {
  sel_.lut_costs[static_cast<std::size_t>(sel_.apps[0].conf)] += 40;
  EXPECT_TRUE(has_rule(verify(), "ext.lut-cost"));
}

TEST_F(MutationTest, ShrunkenBudgetIsFlagged) {
  VerifyOptions options;
  options.lut_budget = 1;
  EXPECT_TRUE(has_rule(verify(options), "ext.lut-budget"));
}

TEST_F(MutationTest, NonAscendingPositionsAreFlagged) {
  std::vector<std::int32_t>& pos = sel_.apps[0].positions;
  ASSERT_GE(pos.size(), 2u);
  std::swap(pos[0], pos[1]);
  EXPECT_TRUE(has_rule(verify(), "rw.positions"));
}

TEST_F(MutationTest, OverlappingApplicationsAreFlagged) {
  sel_.apps.push_back(sel_.apps[0]);
  EXPECT_TRUE(has_rule(verify(), "rw.positions"));
}

TEST_F(MutationTest, WrongOutputClaimIsFlagged) {
  sel_.apps[0].output = kT3;
  EXPECT_TRUE(has_rule(verify(), "ext.output"));
}

TEST_F(MutationTest, TamperedExtEncodingIsFlagged) {
  const Application& app = sel_.apps[0];
  const std::int32_t ni =
      rr_.index_map[static_cast<std::size_t>(app.positions.back())];
  ASSERT_EQ(rr_.program.text[static_cast<std::size_t>(ni)].op, Opcode::kExt);
  rr_.program.text[static_cast<std::size_t>(ni)].rd =
      static_cast<Reg>(app.output ^ 1);
  EXPECT_TRUE(has_rule(verify(), "rw.landing"));
}

TEST_F(MutationTest, EscapedIntermediateIsFlagged) {
  // Make the store read the intermediate $t6 instead of the output $t7:
  // collapsing the chain would then drop a visible write.
  bool rewired = false;
  for (Instruction& ins : program_.text) {
    if (ins.op == Opcode::kSw && ins.rt == 15) {
      ins.rt = kT6;
      rewired = true;
    }
  }
  ASSERT_TRUE(rewired);
  ap_.liveness = compute_liveness(program_, ap_.cfg);
  EXPECT_TRUE(has_rule(verify(), "ext.output"));
}

// --- Translation-validator rules (equiv.*, analysis/equiv.hpp) -------------

TEST_F(MutationTest, TruncatedIndexMapIsFlagged) {
  rr_.index_map.pop_back();
  EXPECT_TRUE(has_rule(verify(), "equiv.map"));
}

TEST_F(MutationTest, IndexMapSkippingAnIndexIsFlagged) {
  // Bumping one interior entry creates a +1/-1 step pair: a deletion map
  // may only step by 0 or 1.
  ASSERT_GE(rr_.index_map.size(), 3u);
  rr_.index_map[1] += 1;
  EXPECT_TRUE(has_rule(verify(), "equiv.map"));
}

TEST_F(MutationTest, IndexMapEndingShortIsFlagged) {
  for (std::int32_t& e : rr_.index_map) e = std::max(0, e - 1);
  EXPECT_TRUE(has_rule(verify(), "equiv.map"));
}

TEST_F(MutationTest, TamperedUncoveredInstructionIsFlagged) {
  // The loop counter's increment is uncovered (not PFU-eligible profile
  // width aside, it feeds a branch); nudging its immediate must trip the
  // byte-identity walk.
  bool tampered = false;
  for (Instruction& ins : rr_.program.text) {
    if (ins.op == Opcode::kAddiu && ins.imm == 1) {
      ins.imm = 2;
      tampered = true;
      break;
    }
  }
  ASSERT_TRUE(tampered);
  EXPECT_TRUE(has_rule(verify(), "equiv.replaced"));
}

TEST_F(MutationTest, BranchRetargetedInRangeIsFlagged) {
  // Retarget the loop branch to a *valid* instruction index that is not
  // where the old target maps: wf.branch-target stays quiet (the target is
  // in range) and only the translation proof can notice.
  bool tampered = false;
  for (Instruction& ins : rr_.program.text) {
    if (is_branch(ins.op)) {
      ASSERT_NE(ins.imm, 0);
      ins.imm = 0;
      tampered = true;
      break;
    }
  }
  ASSERT_TRUE(tampered);
  const VerifyReport report = verify();
  EXPECT_TRUE(has_rule(report, "equiv.target")) << report.summary();
  EXPECT_FALSE(has_rule(report, "wf.branch-target"));
}

TEST_F(MutationTest, TamperedTextSymbolIsFlagged) {
  auto it = rr_.program.text_symbols.find("loop");
  ASSERT_NE(it, rr_.program.text_symbols.end());
  it->second += 1;
  EXPECT_TRUE(has_rule(verify(), "equiv.target"));
}

TEST_F(MutationTest, SwappedInputBindingBreaksSymbolicProof) {
  // The EXT's micro-program reads slot 0 where the window read $t3; binding
  // the slots in the wrong order computes a different function of the
  // inputs, which the shared-DAG proof distinguishes structurally.
  Application& app = sel_.apps[0];
  ASSERT_EQ(app.num_inputs, 2);
  ASSERT_NE(app.inputs[0], app.inputs[1]);
  std::swap(app.inputs[0], app.inputs[1]);
  EXPECT_TRUE(has_rule(verify(), "equiv.symbolic"));
}

TEST_F(MutationTest, ArityMismatchBreaksSymbolicProof) {
  // Claiming a single input against a 2-in configuration is a shape
  // mismatch the symbolic phase reports before attempting a proof.
  sel_.apps[0].num_inputs = 1;
  EXPECT_TRUE(has_rule(verify(), "equiv.symbolic"));
}

TEST_F(MutationTest, ExtDroppingItsOutputIsFlagged) {
  // Redirect the rewritten EXT's destination to the dead intermediate $t5:
  // the live output $t7 is no longer written by anything, which only the
  // rewritten-program liveness proof can see.
  const Application& app = sel_.apps[0];
  const std::int32_t ni =
      rr_.index_map[static_cast<std::size_t>(app.positions.back())];
  ASSERT_EQ(rr_.program.text[static_cast<std::size_t>(ni)].op, Opcode::kExt);
  rr_.program.text[static_cast<std::size_t>(ni)].rd = 13;  // $t5
  const VerifyReport report = verify();
  EXPECT_TRUE(has_rule(report, "equiv.dead-kill")) << report.summary();
}

TEST_F(MutationTest, ResurrectedIntermediateIsFlagged) {
  // Rewire the rewritten store to read the fused-away intermediate $t6:
  // the uncovered-instruction walk sees the edit, and the liveness proof
  // additionally reports that a killed register became live again.
  bool rewired = false;
  for (Instruction& ins : rr_.program.text) {
    if (ins.op == Opcode::kSw && ins.rt == 15) {
      ins.rt = kT6;
      rewired = true;
    }
  }
  ASSERT_TRUE(rewired);
  const VerifyReport report = verify();
  EXPECT_TRUE(has_rule(report, "equiv.replaced")) << report.summary();
  EXPECT_TRUE(has_rule(report, "equiv.dead-kill")) << report.summary();
}

// rw.clobber needs a non-member between chain members, which the extractor
// never selects — handcraft the application.
TEST(VerifyClobber, NonMemberWritingInputIsFlagged) {
  Program p = assemble(R"(
        li $t1, 5
        li $t3, 3
  loop: sll $t5, $t3, 4
        addiu $t3, $t3, 1
        addu $t6, $t5, $t1
        sw  $t6, 0($sp)
        addiu $t1, $t1, 1
        slti $at, $t1, 30
        bne $at, $zero, loop
        halt
  )");
  AnalyzedProgram ap;
  ap.program = &p;
  ap.cfg = Cfg::build(p);
  ap.liveness = compute_liveness(p, ap.cfg);
  ap.profile = profile_program(p, 1u << 22);

  // The window {sll@2, addu@4} skips the addiu@3 that bumps input $t3.
  Application app;
  app.positions = {2, 4};
  app.conf = 0;
  app.output = kT6;
  app.inputs = {kT3, kT1};
  app.num_inputs = 2;

  Selection sel;
  sel.table.intern(ExtInstDef(
      2, {MicroOp{Opcode::kSll, /*dst=*/2, /*a=*/0, /*b=*/-1, /*imm=*/4},
          MicroOp{Opcode::kAddu, /*dst=*/3, /*a=*/2, /*b=*/1, /*imm=*/0}}));
  sel.apps = {app};
  sel.lengths = {2};
  // Mirror the selector's bookkeeping so only the clobber rule can fire.
  const int width = std::max(ap.profile.at(2).max_src_width,
                             ap.profile.at(4).max_src_width);
  sel.lut_costs = {
      estimate_luts(sel.table.at(0), {width, width}).luts};

  const RewriteResult rr = rewrite_program(p, sel.apps);
  const VerifyReport report = verify_selection(ap, sel, rr, {});
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_rule(report, "rw.clobber")) << report.summary();
}

TEST_F(MutationTest, NineMemberApplicationIsTooLongForOnePfu) {
  // One PFU configuration holds at most kMaxUops (8) micro-ops. Stretched
  // over nine valid members, an application fails ext.length and is
  // refused as a configuration; the rest follow from the stretched claim.
  program_ = assemble(R"(
         li $t1, 100
         li $t3, 3
  chain: sll $t5, $t3, 4
         addu $t6, $t5, $t1
         xor $t7, $t6, $t1
         addiu $t7, $t7, 1
         andi $t7, $t7, 255
         ori $t7, $t7, 3
         xor $t7, $t7, $t3
         addu $t7, $t7, $t1
         sll $v0, $t7, 1
         halt
  )");
  analyze();
  sel_ = select_greedy(ap_);
  rr_ = rewrite_program(program_, sel_.apps);
  ASSERT_FALSE(sel_.apps.empty());
  sel_.apps.resize(1);
  std::vector<std::int32_t>& pos = sel_.apps[0].positions;
  pos.clear();
  const std::int32_t chain = program_.text_symbols.at("chain");
  for (std::int32_t p = chain; p < chain + 9; ++p) pos.push_back(p);
  const VerifyReport report = verify();
  std::vector<std::string> rules;
  for (const Diagnostic& d : report.diagnostics) rules.push_back(d.rule_id);
  EXPECT_EQ(rules, (std::vector<std::string>{
                       "ext.length", "ext.opcode-class", "rw.landing",
                       "ext.lut-cost", "equiv.replaced", "equiv.replaced"}));
  ASSERT_GE(report.diagnostics.size(), 2u);
  EXPECT_EQ(report.diagnostics[0].message, "sequence length 9 outside [2, 8]");
  EXPECT_EQ(report.diagnostics[1].message,
            "recomputed micro-program is not a valid PFU configuration: "
            "ExtInstDef: 1..8 micro-ops required");
}

}  // namespace
}  // namespace t1000
