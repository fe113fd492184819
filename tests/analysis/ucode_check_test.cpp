// The `ucode.*` rule family (analysis/ucode_check.hpp): every structural
// invariant of a decoded uop stream, proven enforceable by corrupting a
// healthy stream one invariant at a time and watching the matching rule —
// and only a matching diagnostic — fire.
#include "analysis/ucode_check.hpp"

#include <gtest/gtest.h>

#include <string>

#include "asmkit/assembler.hpp"
#include "isa/extdef.hpp"
#include "sim/ucode.hpp"

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

// True when `report` contains at least one diagnostic with `rule_id`.
bool fired(const VerifyReport& report, const std::string& rule_id) {
  for (const Diagnostic& d : report.diagnostics) {
    if (d.rule_id == rule_id) return true;
  }
  return false;
}

// Index of the first instruction with opcode `op` (pseudo-instructions in
// the assembly expand, so positions are found, not assumed).
std::size_t find_op(const Program& p, Opcode op) {
  for (std::size_t i = 0; i < p.text.size(); ++i) {
    if (p.text[i].op == op) return i;
  }
  ADD_FAILURE() << "no " << int(op) << " in program";
  return 0;
}

TEST(UcodeCheck, CleanDecodeHasNoDiagnostics) {
  const Program p = loop_program();
  const VerifyReport report = verify_ucode(UopProgram::build(p, nullptr));
  EXPECT_EQ(report.errors(), 0);
  EXPECT_EQ(report.warnings(), 0);
}

TEST(UcodeCheck, EmptyProgramIsClean) {
  const Program p;
  const VerifyReport report = verify_ucode(UopProgram::build(p, nullptr));
  EXPECT_EQ(report.errors(), 0);
}

TEST(UcodeCheck, StreamSizeMismatchFires) {
  const Program p = loop_program();
  UopProgram ucode = UopProgram::build(p, nullptr);
  ucode.uops.pop_back();
  EXPECT_TRUE(fired(verify_ucode(ucode), "ucode.stream-size"));
}

TEST(UcodeCheck, DisplacedSentinelFires) {
  const Program p = loop_program();
  {
    // Sentinel in the middle of the stream.
    UopProgram ucode = UopProgram::build(p, nullptr);
    ucode.uops[3].kind = UopKind::kSentinel;
    EXPECT_TRUE(fired(verify_ucode(ucode), "ucode.sentinel"));
  }
  {
    // No sentinel at the off-the-end slot.
    UopProgram ucode = UopProgram::build(p, nullptr);
    ucode.uops.back().kind = UopKind::kNop;
    EXPECT_TRUE(fired(verify_ucode(ucode), "ucode.sentinel"));
  }
}

TEST(UcodeCheck, WrongMirrorKindFires) {
  const Program p = loop_program();
  UopProgram ucode = UopProgram::build(p, nullptr);
  const std::size_t i = find_op(p, Opcode::kAddu);
  ucode.uops[i].kind = UopKind::kSubu;
  const VerifyReport report = verify_ucode(ucode);
  EXPECT_TRUE(fired(report, "ucode.kind"));
  EXPECT_FALSE(fired(report, "ucode.operands"));  // gated behind the kind
}

TEST(UcodeCheck, RegularInstructionLoweredToInterpFires) {
  const Program p = loop_program();
  UopProgram ucode = UopProgram::build(p, nullptr);
  ucode.uops[find_op(p, Opcode::kAddu)].kind = UopKind::kInterp;
  EXPECT_TRUE(fired(verify_ucode(ucode), "ucode.interp"));
}

TEST(UcodeCheck, IrregularInstructionNotInterpFires) {
  // A branch target past the end of text is irregular (its wild-jump error
  // semantics belong to the reference interpreter): force the decoder's
  // output back to a regular branch uop and the rule must object.
  Program p = loop_program();
  const std::size_t i = find_op(p, Opcode::kBgtz);
  p.text[i].imm = p.size() + 5;  // now out of range
  UopProgram ucode = UopProgram::build(p, nullptr);
  ASSERT_EQ(ucode.uops[i].kind, UopKind::kInterp);
  ucode.uops[i].kind = UopKind::kBgtz;
  ucode.uops[i].target = p.text[i].imm;
  EXPECT_TRUE(fired(verify_ucode(ucode), "ucode.interp"));
}

TEST(UcodeCheck, OperandMismatchFires) {
  const Program p = loop_program();
  UopProgram ucode = UopProgram::build(p, nullptr);
  ucode.uops[find_op(p, Opcode::kAddu)].rs ^= 1;
  EXPECT_TRUE(fired(verify_ucode(ucode), "ucode.operands"));
}

TEST(UcodeCheck, ImmediateMismatchFires) {
  const Program p = loop_program();
  UopProgram ucode = UopProgram::build(p, nullptr);
  // An addiu's uop immediate is the sign-extended value; skew it.
  ucode.uops[find_op(p, Opcode::kAddiu)].imm += 1;
  EXPECT_TRUE(fired(verify_ucode(ucode), "ucode.imm"));
}

TEST(UcodeCheck, ControlTargetMismatchFires) {
  const Program p = loop_program();
  UopProgram ucode = UopProgram::build(p, nullptr);
  // Point the backward bgtz's uop somewhere else.
  ucode.uops[find_op(p, Opcode::kBgtz)].target += 1;
  EXPECT_TRUE(fired(verify_ucode(ucode), "ucode.target"));
}

TEST(UcodeCheck, ExtConfOutOfRangeFires) {
  ExtInstTable table;
  table.intern(ExtInstDef(
      /*num_inputs=*/2,
      {MicroOp{Opcode::kAddu, /*dst=*/2, /*a=*/0, /*b=*/1}}));
  Program p;
  p.text.push_back(make_ext(/*rd=*/10, /*rs=*/8, /*rt=*/9, /*conf=*/0));
  p.text.push_back(make_halt());
  UopProgram ucode = UopProgram::build(p, &table);
  ASSERT_EQ(ucode.uops[0].kind, UopKind::kExt);
  // A decoded Conf id past the table: the handler would index out of
  // bounds. (ucode.imm fires too — the decoded id no longer matches the
  // instruction — but ucode.ext is the load-bearing diagnosis.)
  ucode.uops[0].imm = table.size();
  EXPECT_TRUE(fired(verify_ucode(ucode), "ucode.ext"));
}

TEST(UcodeCheck, AllDiagnosticsAreErrors) {
  // The family diagnoses decoder bugs, never style: everything it emits
  // must carry error severity so --verify and t1000-verify fail the run.
  const Program p = loop_program();
  UopProgram ucode = UopProgram::build(p, nullptr);
  ucode.uops[find_op(p, Opcode::kAddu)].kind = UopKind::kInterp;
  ucode.uops[find_op(p, Opcode::kAddiu)].imm += 1;
  const VerifyReport report = verify_ucode(ucode);
  EXPECT_GT(report.errors(), 0);
  EXPECT_EQ(report.warnings(), 0);
  for (const Diagnostic& d : report.diagnostics) {
    EXPECT_EQ(d.severity, Severity::kError) << d.rule_id;
    EXPECT_EQ(d.rule_id.rfind("ucode.", 0), 0u) << d.rule_id;
  }
}

}  // namespace
}  // namespace t1000
