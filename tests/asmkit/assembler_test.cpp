#include "asmkit/assembler.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "isa/instruction.hpp"

namespace t1000 {
namespace {

TEST(Assembler, EmptySourceYieldsEmptyProgram) {
  const Program p = assemble("");
  EXPECT_EQ(p.size(), 0);
  EXPECT_TRUE(p.data.empty());
}

TEST(Assembler, CommentsAndBlankLinesIgnored) {
  const Program p = assemble(R"(
      # full-line comment
      ; another
      nop        # trailing comment
      nop        // c++ style
  )");
  EXPECT_EQ(p.size(), 2);
}

TEST(Assembler, BasicInstructions) {
  const Program p = assemble(R"(
      addu $t0, $t1, $t2
      sll  $t0, $t0, 3
      addiu $t0, $t0, -5
      lw   $t3, 8($sp)
      sw   $t3, -4($sp)
      lui  $t4, 0x1234
      halt
  )");
  ASSERT_EQ(p.size(), 7);
  EXPECT_EQ(p.text[0], make_r(Opcode::kAddu, 8, 9, 10));
  EXPECT_EQ(p.text[1], make_shift(Opcode::kSll, 8, 8, 3));
  EXPECT_EQ(p.text[2], make_imm(Opcode::kAddiu, 8, 8, -5));
  EXPECT_EQ(p.text[3], make_mem(Opcode::kLw, 11, 29, 8));
  EXPECT_EQ(p.text[4], make_mem(Opcode::kSw, 11, 29, -4));
  EXPECT_EQ(p.text[5], make_lui(12, 0x1234));
  EXPECT_EQ(p.text[6], make_halt());
}

TEST(Assembler, LabelsAndBranches) {
  const Program p = assemble(R"(
  top:  addiu $t0, $t0, 1
        bne $t0, $t1, top
        beq $t0, $zero, done
        j top
  done: halt
  )");
  ASSERT_EQ(p.size(), 5);
  EXPECT_EQ(p.text[1].imm, 0);
  EXPECT_EQ(p.text[2].imm, 4);
  EXPECT_EQ(p.text[3].imm, 0);
  EXPECT_EQ(p.text_symbols.at("top"), 0);
  EXPECT_EQ(p.text_symbols.at("done"), 4);
}

TEST(Assembler, ForwardReferencesResolve) {
  const Program p = assemble(R"(
        b end
        nop
  end:  halt
  )");
  EXPECT_EQ(p.text[0].op, Opcode::kBeq);
  EXPECT_EQ(p.text[0].imm, 2);
}

TEST(Assembler, LabelOnOwnLine) {
  const Program p = assemble(R"(
  here:
        j here
  )");
  EXPECT_EQ(p.text_symbols.at("here"), 0);
  EXPECT_EQ(p.text[0].imm, 0);
}

TEST(Assembler, MultipleLabelsSameLocation) {
  const Program p = assemble(R"(
  a: b_: nop
  )");
  EXPECT_EQ(p.text_symbols.at("a"), 0);
  EXPECT_EQ(p.text_symbols.at("b_"), 0);
}

TEST(Assembler, LiSmallExpandsToAddiu) {
  const Program p = assemble("li $t0, 42");
  ASSERT_EQ(p.size(), 1);
  EXPECT_EQ(p.text[0], make_imm(Opcode::kAddiu, 8, 0, 42));
}

TEST(Assembler, LiNegativeExpandsToAddiu) {
  const Program p = assemble("li $t0, -32768");
  ASSERT_EQ(p.size(), 1);
  EXPECT_EQ(p.text[0], make_imm(Opcode::kAddiu, 8, 0, -32768));
}

TEST(Assembler, LiLargeExpandsToLuiOri) {
  const Program p = assemble("li $t0, 0x12345678");
  ASSERT_EQ(p.size(), 2);
  EXPECT_EQ(p.text[0], make_lui(8, 0x1234));
  EXPECT_EQ(p.text[1], make_imm(Opcode::kOri, 8, 8, 0x5678));
}

TEST(Assembler, LiAlignedExpandsToLuiOnly) {
  const Program p = assemble("li $t0, 0x40000");
  ASSERT_EQ(p.size(), 1);
  EXPECT_EQ(p.text[0], make_lui(8, 0x4));
}

TEST(Assembler, LiAllOnesExpandsToAddiu) {
  // 0xFFFFFFFF is the 32-bit pattern of -1: one addiu, not lui+ori.
  const Program p = assemble("li $t0, 0xFFFFFFFF");
  ASSERT_EQ(p.size(), 1);
  EXPECT_EQ(p.text[0], make_imm(Opcode::kAddiu, 8, 0, -1));
}

TEST(Assembler, LiTakesEveryValueOfItsWindow) {
  // The lowest signed and the highest unsigned 32-bit values.
  EXPECT_EQ(assemble("li $t0, -2147483648").text[0], make_lui(8, 0x8000));
  EXPECT_EQ(assemble("li $t0, 4294967295").text[0],
            make_imm(Opcode::kAddiu, 8, 0, -1));
}

TEST(Assembler, LiNegativeAlignedExpandsToLuiOnly) {
  const Program p = assemble("li $t0, -0x10000");  // pattern 0xFFFF0000
  ASSERT_EQ(p.size(), 1);
  EXPECT_EQ(p.text[0], make_lui(8, 0xFFFF));
}

// Regression: the sizing pass classified `li` on the raw 64-bit parse while
// emission classified the truncated 32-bit pattern, so a wide-hex li (e.g.
// 0xFFFFFFFF) was sized as two instructions but emitted as one — shifting
// every label bound after it and silently retargeting branches
// (t1000-verify's wf.use-before-def caught this in the pegwit workload).
TEST(Assembler, LabelsAfterWideHexLiStayAligned) {
  const Program p = assemble(R"(
        li $s0, 0xFFFFFFFF
  top:  addiu $t0, $t0, 1
        bne $t0, $s0, top
        j   top
        halt
  )");
  ASSERT_EQ(p.size(), 5);
  EXPECT_EQ(p.text[0], make_imm(Opcode::kAddiu, 16, 0, -1));
  // `top` must resolve to the addiu at index 1, not a stale index 2.
  EXPECT_EQ(p.text[2].imm, 1);
  EXPECT_EQ(p.text[3].imm, 1);
}

TEST(Assembler, LaResolvesDataAddress) {
  const Program p = assemble(R"(
        .data
  pad:  .space 8
  buf:  .word 1
        .text
        la $a0, buf
        halt
  )");
  ASSERT_EQ(p.size(), 3);
  const std::uint32_t addr = kDataBase + 8;
  EXPECT_EQ(p.text[0], make_lui(4, static_cast<std::int32_t>(addr >> 16)));
  EXPECT_EQ(p.text[1],
            make_imm(Opcode::kOri, 4, 4, static_cast<std::int32_t>(addr & 0xFFFF)));
}

TEST(Assembler, MovePseudo) {
  const Program p = assemble("move $s0, $t3");
  EXPECT_EQ(p.text[0], make_r(Opcode::kAddu, 16, 11, 0));
}

TEST(Assembler, NotNegPseudos) {
  const Program p = assemble("not $t0, $t1\nneg $t2, $t3");
  EXPECT_EQ(p.text[0], make_r(Opcode::kNor, 8, 9, 0));
  EXPECT_EQ(p.text[1], make_r(Opcode::kSubu, 10, 0, 11));
}

TEST(Assembler, ComparisonBranchPseudos) {
  const Program p = assemble(R"(
  top:  blt $t0, $t1, top
        bge $t0, $t1, top
        bgt $t0, $t1, top
        ble $t0, $t1, top
        bltu $t0, $t1, top
  )");
  ASSERT_EQ(p.size(), 10);
  EXPECT_EQ(p.text[0], make_r(Opcode::kSlt, kRegAt, 8, 9));
  EXPECT_EQ(p.text[1], make_branch2(Opcode::kBne, kRegAt, 0, 0));
  EXPECT_EQ(p.text[2], make_r(Opcode::kSlt, kRegAt, 8, 9));
  EXPECT_EQ(p.text[3], make_branch2(Opcode::kBeq, kRegAt, 0, 0));
  EXPECT_EQ(p.text[4], make_r(Opcode::kSlt, kRegAt, 9, 8));  // swapped
  EXPECT_EQ(p.text[8], make_r(Opcode::kSltu, kRegAt, 8, 9));
}

TEST(Assembler, PseudoSizesKeepLabelsConsistent) {
  // The `li` before `target` expands to 2 instructions; the label must
  // account for that in pass 1.
  const Program p = assemble(R"(
        li $t0, 0x12345678
  target: halt
        j target
  )");
  EXPECT_EQ(p.text_symbols.at("target"), 2);
  EXPECT_EQ(p.text[3].imm, 2);
}

TEST(Assembler, DataDirectives) {
  const Program p = assemble(R"(
        .data
  w:    .word 0x01020304, -1
  h:    .half 0x0506
  b:    .byte 7, 8
  s:    .space 3
  a:    .asciiz "hi"
  )");
  ASSERT_EQ(p.data.size(), 4u + 4 + 2 + 2 + 3 + 3);
  // Little-endian layout.
  EXPECT_EQ(p.data[0], 0x04);
  EXPECT_EQ(p.data[3], 0x01);
  EXPECT_EQ(p.data[4], 0xFF);
  EXPECT_EQ(p.data[8], 0x06);
  EXPECT_EQ(p.data[10], 7);
  EXPECT_EQ(p.data[11], 8);
  EXPECT_EQ(p.data[15], 'h');
  EXPECT_EQ(p.data[17], '\0');
  EXPECT_EQ(p.data_symbols.at("w"), kDataBase);
  EXPECT_EQ(p.data_symbols.at("h"), kDataBase + 8);
  EXPECT_EQ(p.data_symbols.at("a"), kDataBase + 15);
}

TEST(Assembler, AlignPadsToPowerOfTwo) {
  const Program p = assemble(R"(
        .data
        .byte 1
        .align 2
  w:    .word 9
  )");
  EXPECT_EQ(p.data_symbols.at("w"), kDataBase + 4);
  EXPECT_EQ(p.data.size(), 8u);
}

TEST(Assembler, WordCanHoldLabelAddresses) {
  const Program p = assemble(R"(
        .data
  tbl:  .word tbl, entry
        .text
  entry: halt
  )");
  const std::uint32_t tbl = kDataBase;
  EXPECT_EQ(p.data[0], tbl & 0xFF);
  std::uint32_t entry_addr = 0;
  for (int i = 0; i < 4; ++i) {
    entry_addr |= static_cast<std::uint32_t>(p.data[4 + i]) << (8 * i);
  }
  EXPECT_EQ(entry_addr, kTextBase);
}

TEST(Assembler, ExtInstruction) {
  const Program p = assemble("ext $t0, $t1, $t2, 17");
  EXPECT_EQ(p.text[0], make_ext(8, 9, 10, 17));
}

TEST(Assembler, NumericTargets) {
  const Program p = assemble("j @7");
  EXPECT_EQ(p.text[0].imm, 7);
}

TEST(Assembler, JrAndJalr) {
  const Program p = assemble("jr $ra\njalr $ra, $t0");
  EXPECT_EQ(p.text[0], make_jr(31));
  EXPECT_EQ(p.text[1], make_jalr(31, 8));
}

// --- error cases ---

TEST(AssemblerErrors, UnknownMnemonic) {
  EXPECT_THROW(assemble("frob $t0, $t1"), AsmError);
}

TEST(AssemblerErrors, UndefinedLabel) {
  EXPECT_THROW(assemble("j nowhere"), AsmError);
}

TEST(AssemblerErrors, DuplicateLabel) {
  EXPECT_THROW(assemble("x: nop\nx: nop"), AsmError);
}

TEST(AssemblerErrors, BadRegister) {
  EXPECT_THROW(assemble("addu $t0, $q1, $t2"), AsmError);
}

TEST(AssemblerErrors, WrongOperandCount) {
  EXPECT_THROW(assemble("addu $t0, $t1"), AsmError);
  EXPECT_THROW(assemble("halt $t0"), AsmError);
}

TEST(AssemblerErrors, BadShiftAmount) {
  EXPECT_THROW(assemble("sll $t0, $t1, 32"), AsmError);
  EXPECT_THROW(assemble("sll $t0, $t1, -1"), AsmError);
}

TEST(AssemblerErrors, DataDirectiveInText) {
  EXPECT_THROW(assemble(".word 5"), AsmError);
}

TEST(AssemblerErrors, InstructionInData) {
  EXPECT_THROW(assemble(".data\nnop"), AsmError);
}

TEST(AssemblerErrors, BadMemOperand) {
  EXPECT_THROW(assemble("lw $t0, $t1"), AsmError);
  EXPECT_THROW(assemble("lw $t0, 4($t1"), AsmError);
}

TEST(AssemblerErrors, ConfOutOfRange) {
  EXPECT_THROW(assemble("ext $t0, $t1, $t2, 2048"), AsmError);
}

TEST(AssemblerErrors, ImmediatesTheEncodingCannotHoldNameTheirLine) {
  // Each used to assemble and run, while t1000-as refused the same file
  // naming no line; lui truncated its immediate silently.
  const std::pair<const char*, const char*> cases[] = {
      {"addiu $v0, $zero, 99999", "immediate out of signed 16-bit range"},
      {"ori $v0, $zero, -1", "immediate out of 16-bit range"},
      {"andi $v0, $zero, 70000", "immediate out of 16-bit range"},
      {"slti $v0, $zero, -40000", "immediate out of signed 16-bit range"},
      {"lw $v0, 40000($zero)", "displacement out of signed 16-bit range"},
      {"lui $v0, 70000", "immediate out of 16-bit range"},
      // Values past 32 bits are checked whole, not by their low bits.
      {"addiu $v0, $zero, 4294967295", "immediate out of signed 16-bit range"},
      {"sll $v0, $t0, 4294967297", "bad shift amount"},
      {"lw $v0, 4294967296($sp)", "displacement out of signed 16-bit range"},
      {"j @4294967297", "jump target out of range"},
      {"ext $v0, $t0, $t1, 4294967297", "Conf id out of range"},
      {"li $v0, 4294967296", "immediate out of 32-bit range"},
      {"li $v0, -2147483649", "immediate out of 32-bit range"},
      {"addiu $v0, $zero, 18446744073709551615",
       "bad immediate '18446744073709551615'"},
  };
  for (const auto& [line, message] : cases) {
    try {
      assemble(std::string(line) + "\nhalt\n");
      ADD_FAILURE() << "assembled " << line;
    } catch (const AsmError& e) {
      EXPECT_EQ(e.line(), 1) << line;
      EXPECT_EQ(std::string(e.what()), std::string("line 1: ") + message)
          << line;
    }
  }
}

TEST(AssemblerErrors, DataPastTheStackTopNamesItsLine) {
  // A .space past 2^32 bytes used to wrap silently (to 0 and 16 bytes
  // here), and one below it allocated that much zeroed data.
  for (const char* size : {"4294967296", "0x100000010", "0x70000000"}) {
    try {
      assemble(std::string("  .data\nbuf: .space ") + size + "\n");
      ADD_FAILURE() << "assembled .space " << size;
    } catch (const AsmError& e) {
      EXPECT_EQ(std::string(e.what()),
                "line 2: data segment runs past the stack top")
          << size;
    }
  }
  try {
    assemble("  .data\na: .space 0x6FFFF000\nb: .word 1\n");
    ADD_FAILURE() << "assembled a data segment past the stack top";
  } catch (const AsmError& e) {
    EXPECT_EQ(e.line(), 3);
  }
}

TEST(AssemblerErrors, ReportsLineNumber) {
  try {
    assemble("nop\nnop\nbogus\n");
    FAIL() << "expected AsmError";
  } catch (const AsmError& e) {
    EXPECT_EQ(e.line(), 3);
  }
}

// --- disassembler ---

TEST(Disassembler, RoundTripsInstructions) {
  const Program p = assemble(R"(
  top:  addu $t0, $t1, $t2
        sll  $t0, $t0, 3
        lw   $t3, 8($sp)
        bne  $t0, $t3, top
        ext  $t0, $t1, $t2, 3
        halt
  )");
  const Program q = assemble(disassemble(p));
  EXPECT_EQ(q.text, p.text);
}

TEST(Disassembler, RoundTripsDataBytes) {
  const Program p = assemble(".data\n.word 0xDEADBEEF\n.text\nhalt");
  const Program q = assemble(disassemble(p));
  EXPECT_EQ(q.data, p.data);
}

// --- binary image ---

TEST(BinaryImage, EncodeDecodeRoundTrip) {
  const Program p = assemble(R"(
  top:  addiu $t0, $t0, 1
        bne $t0, $t1, top
        jal top
        ext $v0, $t0, $t1, 9
        halt
  )");
  const Program q = decode_text(p.encode_text());
  EXPECT_EQ(q.text, p.text);
}

}  // namespace
}  // namespace t1000
