#include "isa/reg.hpp"

#include <array>
#include <charconv>

namespace t1000 {
namespace {

constexpr std::array<std::string_view, kNumRegs> kNames = {
    "$zero", "$at", "$v0", "$v1", "$a0", "$a1", "$a2", "$a3",
    "$t0",   "$t1", "$t2", "$t3", "$t4", "$t5", "$t6", "$t7",
    "$s0",   "$s1", "$s2", "$s3", "$s4", "$s5", "$s6", "$s7",
    "$t8",   "$t9", "$k0", "$k1", "$gp", "$sp", "$fp", "$ra",
};

int parse_index(std::string_view digits) {
  int value = -1;
  const auto [ptr, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), value);
  if (ec != std::errc() || ptr != digits.data() + digits.size()) return -1;
  return (value >= 0 && value < kNumRegs) ? value : -1;
}

}  // namespace

std::string_view reg_name(Reg r) {
  // A malformed object can carry any field value, and the verifier names
  // the instruction in its wf.reg-range diagnostic.
  if (r >= kNumRegs) return "$?";
  return kNames[r];
}

int parse_reg(std::string_view text) {
  if (text.empty()) return -1;
  if (text.front() == '$' || text.front() == 'r') {
    const std::string_view rest = text.substr(1);
    if (!rest.empty() && rest.front() >= '0' && rest.front() <= '9') {
      return parse_index(rest);
    }
    if (text.front() == '$') {
      for (int i = 0; i < kNumRegs; ++i) {
        if (kNames[static_cast<std::size_t>(i)] == text) return i;
      }
    }
    return -1;
  }
  return parse_index(text);
}

}  // namespace t1000
