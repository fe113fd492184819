#include "isa/reg.hpp"

#include <gtest/gtest.h>

namespace t1000 {
namespace {

TEST(Reg, NamesMatchAbi) {
  EXPECT_EQ(reg_name(0), "$zero");
  EXPECT_EQ(reg_name(1), "$at");
  EXPECT_EQ(reg_name(2), "$v0");
  EXPECT_EQ(reg_name(4), "$a0");
  EXPECT_EQ(reg_name(8), "$t0");
  EXPECT_EQ(reg_name(16), "$s0");
  EXPECT_EQ(reg_name(24), "$t8");
  EXPECT_EQ(reg_name(29), "$sp");
  EXPECT_EQ(reg_name(31), "$ra");
}

TEST(Reg, OutOfRangeFieldHasPlaceholderName) {
  EXPECT_EQ(reg_name(kNumRegs), "$?");
  EXPECT_EQ(reg_name(255), "$?");
}

TEST(Reg, ParseAbiNames) {
  for (int i = 0; i < kNumRegs; ++i) {
    EXPECT_EQ(parse_reg(reg_name(static_cast<Reg>(i))), i);
  }
}

TEST(Reg, ParseNumericForms) {
  EXPECT_EQ(parse_reg("$0"), 0);
  EXPECT_EQ(parse_reg("$31"), 31);
  EXPECT_EQ(parse_reg("r17"), 17);
  EXPECT_EQ(parse_reg("5"), 5);
}

TEST(Reg, ParseRejectsBadInput) {
  EXPECT_EQ(parse_reg(""), -1);
  EXPECT_EQ(parse_reg("$32"), -1);
  EXPECT_EQ(parse_reg("$-1"), -1);
  EXPECT_EQ(parse_reg("$zz"), -1);
  EXPECT_EQ(parse_reg("x4"), -1);
  EXPECT_EQ(parse_reg("$t00x"), -1);
  EXPECT_EQ(parse_reg("32"), -1);
}

}  // namespace
}  // namespace t1000
