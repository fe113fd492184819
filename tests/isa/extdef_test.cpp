#include "isa/extdef.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <stdexcept>

namespace t1000 {
namespace {

// The paper's running example (Figure 3): sll r2,r3,4; addu r2,r2,r1.
ExtInstDef sll_addu() {
  return ExtInstDef(2, {
                           {.op = Opcode::kSll, .dst = 2, .a = 0, .imm = 4},
                           {.op = Opcode::kAddu, .dst = 3, .a = 2, .b = 1},
                       });
}

TEST(ExtInstDef, EvaluatesChain) {
  const ExtInstDef d = sll_addu();
  EXPECT_EQ(d.eval(3, 100), (3u << 4) + 100);
  EXPECT_EQ(d.length(), 2);
  EXPECT_EQ(d.num_inputs(), 2);
  EXPECT_EQ(d.base_cycles(), 2);
}

TEST(ExtInstDef, ThreeOpChainFromPaperFigure3) {
  // sll r2,r3,4 ; addu r2,r2,r1 ; sll r2,r2,2
  const ExtInstDef d(2, {
                            {.op = Opcode::kSll, .dst = 2, .a = 0, .imm = 4},
                            {.op = Opcode::kAddu, .dst = 3, .a = 2, .b = 1},
                            {.op = Opcode::kSll, .dst = 4, .a = 3, .imm = 2},
                        });
  EXPECT_EQ(d.eval(3, 100), ((3u << 4) + 100) << 2);
  EXPECT_EQ(d.base_cycles(), 3);
}

TEST(ExtInstDef, SingleInput) {
  const ExtInstDef d(1, {
                            {.op = Opcode::kAndi, .dst = 2, .a = 0, .imm = 0xFF},
                            {.op = Opcode::kXori, .dst = 3, .a = 2, .imm = 0x55},
                        });
  EXPECT_EQ(d.eval(0x1AB, 0xDEAD), (0x1ABu & 0xFF) ^ 0x55);
}

TEST(ExtInstDef, ImmediateExtensionRespected) {
  const ExtInstDef d(1, {{.op = Opcode::kAddiu, .dst = 2, .a = 0, .imm = -1}});
  EXPECT_EQ(d.eval(10, 0), 9u);
  const ExtInstDef z(1, {{.op = Opcode::kOri, .dst = 2, .a = 0, .imm = 0xFFFF}});
  EXPECT_EQ(z.eval(0, 0), 0xFFFFu);
}

TEST(ExtInstDef, LuiNeedsNoInputs) {
  const ExtInstDef d(0, {{.op = Opcode::kLui, .dst = 2, .imm = 0x12}});
  EXPECT_EQ(d.eval(0, 0), 0x120000u);
}

TEST(ExtInstDef, EvalIsTheFirstOutputOfEvalMulti) {
  // 2-in/2-out: t = in1 - in0, out = {t >> 3 (arithmetic), t}.
  const ExtInstDef mimo(2,
                        {{.op = Opcode::kSubu, .dst = 2, .a = 1, .b = 0},
                         {.op = Opcode::kSra, .dst = 3, .a = 2, .imm = 3}},
                        {3, 2});
  for (const ExtInstDef& d : {sll_addu(), mimo}) {
    for (const std::uint32_t a : {0u, 1u, 100u, 0x80000000u, 0xFFFFFFFFu}) {
      std::array<std::uint32_t, kMaxExtOutputs> out{};
      d.eval_multi({a, 7, 0, 0}, out);
      EXPECT_EQ(d.eval(a, 7), out[0]) << d.signature();
    }
  }
  std::array<std::uint32_t, kMaxExtOutputs> out{};
  mimo.eval_multi({3, 100, 0, 0}, out);
  EXPECT_EQ(out[0], 97u >> 3);
  EXPECT_EQ(out[1], 97u);
}

TEST(ExtInstDef, IdenticalSequencesShareSignature) {
  EXPECT_EQ(sll_addu().signature(), sll_addu().signature());
  EXPECT_EQ(sll_addu(), sll_addu());
}

TEST(ExtInstDef, DifferentImmediatesDiffer) {
  const ExtInstDef a(1, {{.op = Opcode::kSll, .dst = 2, .a = 0, .imm = 4}});
  const ExtInstDef b(1, {{.op = Opcode::kSll, .dst = 2, .a = 0, .imm = 5}});
  EXPECT_NE(a.signature(), b.signature());
}

TEST(ExtInstDef, RejectsNonAluOps) {
  EXPECT_THROW(ExtInstDef(1, {{.op = Opcode::kLw, .dst = 2, .a = 0}}),
               std::invalid_argument);
  EXPECT_THROW(ExtInstDef(1, {{.op = Opcode::kBeq, .dst = 2, .a = 0}}),
               std::invalid_argument);
}

TEST(ExtInstDef, RejectsMalformedSlots) {
  // Reads a slot that has not been written.
  EXPECT_THROW(ExtInstDef(1, {{.op = Opcode::kAddu, .dst = 2, .a = 0, .b = 3}}),
               std::invalid_argument);
  // Reads input slot 1 with only one declared input.
  EXPECT_THROW(ExtInstDef(1, {{.op = Opcode::kAddu, .dst = 2, .a = 0, .b = 1}}),
               std::invalid_argument);
  // Non-sequential dst.
  EXPECT_THROW(ExtInstDef(2, {{.op = Opcode::kAddu, .dst = 5, .a = 0, .b = 1}}),
               std::invalid_argument);
  // Empty.
  EXPECT_THROW(ExtInstDef(2, {}), std::invalid_argument);
}

TEST(ExtInstDef, RejectsOverlongChains) {
  std::vector<MicroOp> uops;
  for (int i = 0; i < kMaxUops + 1; ++i) {
    uops.push_back({.op = Opcode::kAddiu,
                    .dst = static_cast<std::int8_t>(2 + i),
                    .a = static_cast<std::int8_t>(i == 0 ? 0 : 1 + i),
                    .imm = 1});
  }
  EXPECT_THROW(ExtInstDef(1, uops), std::invalid_argument);
  uops.pop_back();
  EXPECT_NO_THROW(ExtInstDef(1, uops));
}

TEST(ExtInstTable, InternDeduplicates) {
  ExtInstTable table;
  const ConfId a = table.intern(sll_addu());
  const ConfId b = table.intern(sll_addu());
  EXPECT_EQ(a, b);
  EXPECT_EQ(table.size(), 1);
  const ExtInstDef other(1, {{.op = Opcode::kSll, .dst = 2, .a = 0, .imm = 4}});
  const ConfId c = table.intern(other);
  EXPECT_NE(c, a);
  EXPECT_EQ(table.size(), 2);
  EXPECT_EQ(table.at(a).length(), 2);
  EXPECT_EQ(table.at(c).length(), 1);
}

}  // namespace
}  // namespace t1000
