#include "isa/encoding.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "isa/instruction.hpp"

namespace t1000 {
namespace {

void expect_roundtrip(const Instruction& ins, std::uint32_t index = 5) {
  const std::uint32_t word = encode(ins, index);
  const Instruction back = decode(word, index);
  EXPECT_EQ(back, ins) << to_string(ins) << " vs " << to_string(back);
}

TEST(Encoding, RoundTripAlu3) {
  for (const Opcode op : {Opcode::kAddu, Opcode::kSubu, Opcode::kAnd,
                          Opcode::kOr, Opcode::kXor, Opcode::kNor,
                          Opcode::kSlt, Opcode::kSltu, Opcode::kSllv,
                          Opcode::kSrlv, Opcode::kSrav, Opcode::kMul}) {
    expect_roundtrip(make_r(op, 7, 13, 21));
  }
}

TEST(Encoding, RoundTripShiftImm) {
  for (const Opcode op : {Opcode::kSll, Opcode::kSrl, Opcode::kSra}) {
    for (const int sh : {1, 15, 31}) {
      expect_roundtrip(make_shift(op, 9, 10, sh));
    }
  }
}

TEST(Encoding, RoundTripAluImm) {
  expect_roundtrip(make_imm(Opcode::kAddiu, 4, 5, -32768));
  expect_roundtrip(make_imm(Opcode::kAddiu, 4, 5, 32767));
  expect_roundtrip(make_imm(Opcode::kSlti, 4, 5, -7));
  expect_roundtrip(make_imm(Opcode::kSltiu, 4, 5, 100));
  expect_roundtrip(make_imm(Opcode::kAndi, 4, 5, 0xFFFF));
  expect_roundtrip(make_imm(Opcode::kOri, 4, 5, 0x8000));
  expect_roundtrip(make_imm(Opcode::kXori, 4, 5, 0x1234));
  expect_roundtrip(make_lui(4, 0xABCD));
}

TEST(Encoding, RoundTripMemory) {
  for (const Opcode op : {Opcode::kLw, Opcode::kLh, Opcode::kLhu, Opcode::kLb,
                          Opcode::kLbu, Opcode::kSw, Opcode::kSh, Opcode::kSb}) {
    expect_roundtrip(make_mem(op, 8, 29, -64));
    expect_roundtrip(make_mem(op, 8, 29, 32000));
  }
}

TEST(Encoding, RoundTripBranches) {
  // Forward and backward targets around index 100.
  for (const Opcode op : {Opcode::kBeq, Opcode::kBne}) {
    expect_roundtrip(make_branch2(op, 3, 4, 150), 100);
    expect_roundtrip(make_branch2(op, 3, 4, 10), 100);
    expect_roundtrip(make_branch2(op, 3, 4, 101), 100);  // offset 0
  }
  for (const Opcode op :
       {Opcode::kBlez, Opcode::kBgtz, Opcode::kBltz, Opcode::kBgez}) {
    expect_roundtrip(make_branch1(op, 3, 150), 100);
    expect_roundtrip(make_branch1(op, 3, 10), 100);
  }
}

TEST(Encoding, RoundTripJumps) {
  expect_roundtrip(make_jump(Opcode::kJ, 0));
  expect_roundtrip(make_jump(Opcode::kJ, (1 << 26) - 1));
  expect_roundtrip(make_jump(Opcode::kJal, 12345));
  expect_roundtrip(make_jr(31));
  expect_roundtrip(make_jalr(31, 9));
}

TEST(Encoding, RoundTripSpecials) {
  expect_roundtrip(make_nop());
  expect_roundtrip(make_halt());
  expect_roundtrip(make_ext(8, 9, 10, 0));
  expect_roundtrip(make_ext(8, 9, 10, (1u << kConfBits) - 1));
}

TEST(Encoding, NopEncodesAsZero) {
  EXPECT_EQ(encode(make_nop(), 0), 0u);
  EXPECT_EQ(decode(0, 0).op, Opcode::kNop);
}

TEST(Encoding, RejectsOutOfRangeFields) {
  EXPECT_THROW(encode(make_imm(Opcode::kAddiu, 1, 2, 40000), 0), EncodingError);
  EXPECT_THROW(encode(make_imm(Opcode::kAndi, 1, 2, -1), 0), EncodingError);
  EXPECT_THROW(encode(make_imm(Opcode::kAndi, 1, 2, 0x10000), 0), EncodingError);
  EXPECT_THROW(encode(make_mem(Opcode::kLw, 1, 2, 0x8000), 0), EncodingError);
  EXPECT_THROW(encode(make_branch2(Opcode::kBeq, 1, 2, 100000), 0),
               EncodingError);
  EXPECT_THROW(encode(make_jump(Opcode::kJ, 1 << 26), 0), EncodingError);
  EXPECT_THROW(encode(make_ext(1, 2, 3, 1u << kConfBits), 0), EncodingError);
  // A MIMO EXT's packed operands have no room in the word.
  EXPECT_THROW(encode(make_ext(10, 8, 9, 2, {11, 12}, {13}), 0),
               EncodingError);
  EXPECT_THROW(encode(make_shift(Opcode::kSll, 1, 2, 32), 0), EncodingError);
}

TEST(Encoding, RejectsUnknownWords) {
  EXPECT_THROW(decode(0x3Fu << 26, 0), EncodingError);          // opcode 0x3F
  EXPECT_THROW(decode(0x3Au, 0), EncodingError);                // bad funct
  EXPECT_THROW(decode((0x01u << 26) | (5u << 16), 0), EncodingError);  // REGIMM
}

// Exhaustive-ish roundtrip sweep over register fields.
class EncodingRegSweep : public ::testing::TestWithParam<int> {};

TEST_P(EncodingRegSweep, AllRegistersRoundTrip) {
  const Reg r = static_cast<Reg>(GetParam());
  expect_roundtrip(make_r(Opcode::kXor, r, r, r));
  expect_roundtrip(make_mem(Opcode::kLw, r, r, 4));
  expect_roundtrip(make_mem(Opcode::kSw, r, r, 4));
  if (r != 0) {
    // rd=0 shift would decode as nop-adjacent; sll $zero is legal but the
    // canonical zero word is reserved for nop.
    expect_roundtrip(make_shift(Opcode::kSll, r, r, 3));
  }
}

INSTANTIATE_TEST_SUITE_P(AllRegs, EncodingRegSweep, ::testing::Range(0, 32));

}  // namespace
}  // namespace t1000
