// Golden-fixture regression tests for the uop decoder.
//
// Each scenario pins the full disassembly of one decode corner — uop
// kinds, resolved operands and immediates, rewritten control targets,
// sentinel placement — against a checked-in fixture under
// tests/sim/golden/. Any lowering change that moves the decoded form must
// be deliberate: regenerate with
//
//   T1000_REGEN_GOLDEN=1 ./ucode_test --gtest_filter='UcodeGolden.*'
//
// and review the fixture diff (a changed fixture almost always means
// kUcodeFormatVersion must be bumped too — the cache-key suite pins that
// version into memoized-run identity).
//
// The corners:
//  * block ending in a conditional branch (fall-through + taken edges);
//  * an EXT instruction mid-block, its Conf id resolved against a table;
//  * a single-instruction block sitting at the very end of the program.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "asmkit/assembler.hpp"
#include "isa/extdef.hpp"
#include "sim/ucode.hpp"

namespace t1000 {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(T1000_GOLDEN_DIR) + "/" + name + ".txt";
}

void check_golden(const std::string& name, const Program& program,
                  const ExtInstTable* table) {
  const UopProgram ucode = UopProgram::build(program, table);
  const std::string text = disassemble(ucode);
  const std::string path = golden_path(name);

  if (std::getenv("T1000_REGEN_GOLDEN") != nullptr) {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(os.is_open()) << "cannot write " << path;
    os << text;
    return;
  }

  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(is.is_open())
      << "missing fixture " << path
      << " — regenerate with T1000_REGEN_GOLDEN=1 (see file comment)";
  std::ostringstream buf;
  buf << is.rdbuf();
  EXPECT_EQ(buf.str(), text)
      << name << ": decoded form drifted from the golden fixture; if the "
      << "lowering change is intended, regenerate with T1000_REGEN_GOLDEN=1, "
      << "review, and bump kUcodeFormatVersion";
}

TEST(UcodeGolden, BlockEndingInConditionalBranch) {
  // The canonical loop shape: the branch closes its block, the taken edge
  // targets the loop head, the fall-through edge starts the next block.
  // Covers resolved load/store displacements and a pre-extended negative
  // ALU immediate on the way.
  const Program p = assemble(R"(
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
  check_golden("block_ending_in_conditional_branch", p, nullptr);
}

TEST(UcodeGolden, ExtMidBlock) {
  // An EXT in the middle of a straight-line block: the decoder must bind
  // its Conf id as the uop immediate (resolved against the table) and give
  // it no target — EXT is not a control instruction.
  ExtInstTable table;
  table.intern(ExtInstDef(
      /*num_inputs=*/2, {MicroOp{Opcode::kAddu, /*dst=*/2, /*a=*/0, /*b=*/1},
                         MicroOp{Opcode::kSll, /*dst=*/3, /*a=*/2, /*b=*/-1,
                                 /*imm=*/2}}));
  Program p;
  p.text.push_back(make_imm(Opcode::kAddiu, /*rd=*/8, 0, 5));
  p.text.push_back(make_imm(Opcode::kAddiu, /*rd=*/9, 0, 7));
  p.text.push_back(make_ext(/*rd=*/10, /*rs=*/8, /*rt=*/9, /*conf=*/0));
  p.text.push_back(make_r(Opcode::kAddu, /*rd=*/2, /*rs=*/10, /*rt=*/0));
  p.text.push_back(make_halt());
  check_golden("ext_mid_block", p, &table);
}

TEST(UcodeGolden, SingleInstructionBlockAtProgramEnd) {
  // A jump over the penultimate instruction leaves `halt` alone in the
  // final one-instruction block, directly abutting the off-the-end
  // sentinel — the decode corner where the jump targets size() - 1.
  Program p;
  p.text.push_back(make_imm(Opcode::kAddiu, /*rd=*/2, 0, 1));
  p.text.push_back(make_jump(Opcode::kJ, /*target=*/3));
  p.text.push_back(make_imm(Opcode::kAddiu, /*rd=*/2, 0, 99));  // skipped
  p.text.push_back(make_halt());
  check_golden("single_instruction_block_at_end", p, nullptr);
}

}  // namespace
}  // namespace t1000
