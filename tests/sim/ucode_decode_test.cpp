// The uop decoder's lowering (sim/ucode.cpp), pinned one row at a time.
//
// lower() is a function of one instruction, the text size and the EXT
// table, so a row for every opcode plus a row for every irregular class
// covers the decode of any module. Each row decodes as a one-instruction
// program (size 1: a target of 1 is the sentinel and legal, -1 and 2 are
// not) and states its expected uop as literals, never recomputed, so a
// wrong lowering rule cannot agree with a copy of itself.
//
// The lockstep suites (ucode_differential_test, ucode_fuzz_test) check what
// each uop computes. They cannot see a regular instruction deferred to
// kInterp, which computes the same results on the slow path; the regular
// rows here can. The UcodeCheck tests prove the row check has teeth: a
// healthy decode corrupted in one field must be reported in that field.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "asmkit/program.hpp"
#include "isa/extdef.hpp"
#include "isa/instruction.hpp"
#include "isa/opcode.hpp"
#include "sim/ucode.hpp"

namespace t1000 {
namespace {

using O = Opcode;
using K = UopKind;
using Uops = std::vector<Uop>;
using Fields = std::vector<std::string>;

// Conf 0 and 1 are 2-in/1-out; conf 2 is 4-in/2-out. Conf 3 is past it.
const ExtInstTable* ext_table() {
  static const ExtInstTable table = [] {
    ExtInstTable t;
    t.intern(ExtInstDef(2, {MicroOp{Opcode::kAddu, 2, 0, 1}}));
    t.intern(ExtInstDef(2, {MicroOp{Opcode::kSubu, 2, 0, 1}}));
    t.intern(ExtInstDef(4,
                        {MicroOp{Opcode::kAddu, 4, 0, 1},
                         MicroOp{Opcode::kAddu, 5, 2, 3},
                         MicroOp{Opcode::kXor, 6, 4, 5}},
                        {6, 4}));
    return t;
  }();
  return &table;
}

struct Row {
  Instruction ins;
  Uop want;  // kind, rd, rs, rt, imm, target
  const ExtInstTable* table = nullptr;
};

const Uop kSentinel{K::kSentinel};

const Row kRegular[] = {
    {make_r(O::kAddu, 2, 8, 9), {K::kAddu, 2, 8, 9}},
    {make_r(O::kSubu, 3, 9, 10), {K::kSubu, 3, 9, 10}},
    {make_r(O::kAnd, 4, 10, 11), {K::kAnd, 4, 10, 11}},
    {make_r(O::kOr, 5, 11, 12), {K::kOr, 5, 11, 12}},
    {make_r(O::kXor, 6, 12, 13), {K::kXor, 6, 12, 13}},
    {make_r(O::kNor, 7, 13, 0), {K::kNor, 7, 13, 0}},
    {make_r(O::kSlt, 8, 14, 15), {K::kSlt, 8, 14, 15}},
    {make_r(O::kSltu, 9, 15, 16), {K::kSltu, 9, 15, 16}},
    {make_r(O::kSllv, 10, 16, 17), {K::kSllv, 10, 16, 17}},
    {make_r(O::kSrlv, 11, 17, 18), {K::kSrlv, 11, 17, 18}},
    {make_r(O::kSrav, 12, 18, 19), {K::kSrav, 12, 18, 19}},
    {make_r(O::kMul, 13, 19, 20), {K::kMul, 13, 19, 20}},
    // Shift amounts are masked to five bits at decode.
    {make_shift(O::kSll, 2, 8, 33), {K::kSll, 2, 8, 0, 1}},
    {make_shift(O::kSrl, 2, 8, 31), {K::kSrl, 2, 8, 0, 31}},
    {make_shift(O::kSra, 2, 8, 4), {K::kSra, 2, 8, 0, 4}},
    // ALU immediates are extended at decode: sign for addiu/slti/sltiu,
    // zero for andi/ori/xori.
    {make_imm(O::kAddiu, 2, 8, -1), {K::kAddiu, 2, 8, 0, -1}},
    {make_imm(O::kAndi, 2, 8, -1), {K::kAndi, 2, 8, 0, 0xFFFF}},
    {make_imm(O::kOri, 2, 8, 0xFFFF), {K::kOri, 2, 8, 0, 0xFFFF}},
    {make_imm(O::kXori, 2, 8, 0x8000), {K::kXori, 2, 8, 0, 0x8000}},
    {make_imm(O::kSlti, 2, 8, -32768), {K::kSlti, 2, 8, 0, -32768}},
    {make_imm(O::kSltiu, 2, 8, -1), {K::kSltiu, 2, 8, 0, -1}},
    // The full 32-bit value.
    {make_lui(2, 0x1234), {K::kLui, 2, 0, 0, 0x12340000}},
    // Displacements verbatim; a store's data register is rt.
    {make_mem(O::kLw, 2, 29, -4), {K::kLw, 2, 29, 0, -4}},
    {make_mem(O::kLh, 3, 29, 2), {K::kLh, 3, 29, 0, 2}},
    {make_mem(O::kLhu, 4, 29, 6), {K::kLhu, 4, 29, 0, 6}},
    {make_mem(O::kLb, 5, 29, -1), {K::kLb, 5, 29, 0, -1}},
    {make_mem(O::kLbu, 6, 29, 3), {K::kLbu, 6, 29, 0, 3}},
    {make_mem(O::kSw, 7, 29, 8), {K::kSw, 0, 29, 7, 8}},
    {make_mem(O::kSh, 8, 29, -2), {K::kSh, 0, 29, 8, -2}},
    {make_mem(O::kSb, 9, 29, 5), {K::kSb, 0, 29, 9, 5}},
    // Static targets in [0, size] become the uop's target.
    {make_branch2(O::kBeq, 8, 9, 1), {K::kBeq, 0, 8, 9, 0, 1}},
    {make_branch2(O::kBne, 8, 9, 0), {K::kBne, 0, 8, 9, 0, 0}},
    {make_branch1(O::kBlez, 8, 1), {K::kBlez, 0, 8, 0, 0, 1}},
    {make_branch1(O::kBgtz, 8, 0), {K::kBgtz, 0, 8, 0, 0, 0}},
    {make_branch1(O::kBltz, 8, 1), {K::kBltz, 0, 8, 0, 0, 1}},
    {make_branch1(O::kBgez, 8, 1), {K::kBgez, 0, 8, 0, 0, 1}},
    {make_jump(O::kJ, 1), {K::kJ, 0, 0, 0, 0, 1}},
    {make_jump(O::kJal, 0), {K::kJal, 0, 0, 0, 0, 0}},
    {make_jr(31), {K::kJr, 0, 31, 0}},
    {make_jalr(31, 8), {K::kJalr, 31, 8, 0}},
    {make_nop(), {K::kNop, 0, 0, 0}},
    {make_halt(), {K::kHalt, 0, 0, 0}},
    // A 2-in/1-out EXT carries its Conf id.
    {make_ext(10, 8, 9, 1), {K::kExt, 10, 8, 9, 1}, ext_table()},
};

// Every irregular class defers its step to the reference interpreter,
// which owns its error semantics; the register fields ride along.
const Row kIrregular[] = {
    {make_branch2(O::kBeq, 8, 9, -1), {K::kInterp, 0, 8, 9}},
    {make_branch1(O::kBgtz, 8, 2), {K::kInterp, 0, 8, 0}},
    {make_jump(O::kJ, -1), {K::kInterp, 0, 0, 0}},
    {make_jump(O::kJal, 2), {K::kInterp, 0, 0, 0}},
    {make_r(O::kAddu, 32, 8, 9), {K::kInterp, 32, 8, 9}},
    {make_ext(10, 8, 9, 0), {K::kInterp, 10, 8, 9}},
    {make_ext(10, 8, 9, 3), {K::kInterp, 10, 8, 9}, ext_table()},
    {make_ext(10, 8, 9, 2, {11, 12}, {13}), {K::kInterp, 10, 8, 9},
     ext_table()},
};

// The first row of `rows` for `op`.
template <typename Rows>
const Row& row_of(const Rows& rows, Opcode op) {
  for (const Row& row : rows) {
    if (row.ins.op == op) return row;
  }
  throw std::logic_error("no row for " + std::string(mnemonic(op)));
}

// The rows the UcodeCheck tests corrupt.
const Row& kAddu = row_of(kRegular, O::kAddu);
const Row& kAddiu = row_of(kRegular, O::kAddiu);
const Row& kBgtz = row_of(kRegular, O::kBgtz);
const Row& kExt = row_of(kRegular, O::kExt);
const Row& kBgtzPastText = row_of(kIrregular, O::kBgtz);

// The fields in which a one-instruction decode departs from `want` and the
// sentinel behind it; empty exactly when it is that pair.
Fields mismatches(const Uops& u, const Uop& want) {
  if (u.size() != 2) return {"stream-size"};
  Fields out;
  if (u[0].kind == K::kSentinel || u[1] != kSentinel) out.push_back("sentinel");
  if (u[0].kind != want.kind) out.push_back("kind");
  if (u[0].rd != want.rd || u[0].rs != want.rs || u[0].rt != want.rt) {
    out.push_back("operands");
  }
  if (u[0].imm != want.imm) out.push_back("imm");
  if (u[0].target != want.target) out.push_back("target");
  if (out.empty() && u[0] != want) out.push_back("uop");
  return out;
}

// Decodes `row` as a one-instruction program, lets `corrupt` edit the
// uops, and expects the row check to report exactly `fields`.
void expect_check(const Row& row, const Fields& fields,
                  void (*corrupt)(Uops&) = [](Uops&) {}) {
  Program p;
  p.text.push_back(row.ins);
  UopProgram ucode = UopProgram::build(p, row.table);
  corrupt(ucode.uops);
  EXPECT_EQ(mismatches(ucode.uops, row.want), fields)
      << to_string(row.ins) << " decoded to\n"
      << disassemble(ucode);
}

TEST(UcodeDecode, EveryOpcodeLowersToItsMirror) {
  ASSERT_EQ(std::size(kRegular), static_cast<std::size_t>(kNumOpcodes));
  std::array<int, kNumOpcodes> rows_of{};
  for (const Row& row : kRegular) {
    ++rows_of[static_cast<std::size_t>(row.ins.op)];
    expect_check(row, {});
  }
  for (int op = 0; op < kNumOpcodes; ++op) {
    EXPECT_EQ(rows_of[static_cast<std::size_t>(op)], 1)
        << mnemonic(static_cast<Opcode>(op));
  }
  for (const Row& row : kIrregular) expect_check(row, {});
}

TEST(UcodeDecode, EmptyProgramDecodesToTheSentinelAlone) {
  const Program empty;
  EXPECT_EQ(UopProgram::build(empty, nullptr).uops, Uops{kSentinel});
}

// The control: the rows the tests below corrupt decode clean.
TEST(UcodeCheck, CleanDecodeHasNoDiagnostics) {
  for (const Row* row : {&kAddu, &kAddiu, &kBgtz, &kExt, &kBgtzPastText}) {
    expect_check(*row, {});
  }
}

TEST(UcodeCheck, StreamSizeMismatchFires) {
  expect_check(kAddu, {"stream-size"}, [](Uops& u) { u.pop_back(); });
  expect_check(kAddu, {"stream-size"}, [](Uops& u) { u.push_back(kSentinel); });
}

TEST(UcodeCheck, DisplacedSentinelFires) {
  expect_check(kAddu, {"sentinel", "kind"},
               [](Uops& u) { u[0].kind = K::kSentinel; });
  expect_check(kAddu, {"sentinel"}, [](Uops& u) { u[1].kind = K::kNop; });
}

TEST(UcodeCheck, WrongMirrorKindFires) {
  expect_check(kAddu, {"kind"}, [](Uops& u) { u[0].kind = K::kSubu; });
}

TEST(UcodeCheck, RegularInstructionLoweredToInterpFires) {
  // Computes the same results on the slow path: only this check sees it.
  expect_check(kAddu, {"kind"}, [](Uops& u) { u[0].kind = K::kInterp; });
}

TEST(UcodeCheck, IrregularInstructionNotInterpFires) {
  // A branch past the text lowered as a regular one.
  expect_check(kBgtzPastText, {"kind", "target"},
               [](Uops& u) { u[0] = {K::kBgtz, 0, 8, 0, 0, 2}; });
}

TEST(UcodeCheck, OperandMismatchFires) {
  expect_check(kAddu, {"operands"}, [](Uops& u) { u[0].rs ^= 1; });
}

TEST(UcodeCheck, ImmediateMismatchFires) {
  expect_check(kAddiu, {"imm"}, [](Uops& u) { u[0].imm += 1; });
}

TEST(UcodeCheck, ControlTargetMismatchFires) {
  expect_check(kBgtz, {"target"}, [](Uops& u) { u[0].target += 1; });
}

TEST(UcodeCheck, ExtConfOutOfRangeFires) {
  // A Conf id past the table: the handler would index out of bounds.
  expect_check(kExt, {"imm"}, [](Uops& u) { u[0].imm = ext_table()->size(); });
}

}  // namespace
}  // namespace t1000
