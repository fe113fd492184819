// Architectural register names for the T1000 ISA (32 general-purpose
// registers with the conventional MIPS ABI aliases; r0 is hardwired zero).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace t1000 {

inline constexpr int kNumRegs = 32;

using Reg = std::uint8_t;

inline constexpr Reg kRegZero = 0;
inline constexpr Reg kRegAt = 1;
inline constexpr Reg kRegV0 = 2;
inline constexpr Reg kRegA0 = 4;
inline constexpr Reg kRegT0 = 8;
inline constexpr Reg kRegS0 = 16;
inline constexpr Reg kRegGp = 28;
inline constexpr Reg kRegSp = 29;
inline constexpr Reg kRegFp = 30;
inline constexpr Reg kRegRa = 31;

// ABI alias for register `r` (e.g. 4 -> "$a0"); "$?" when `r` is not a
// register.
std::string_view reg_name(Reg r);

// Parses "$t0", "$4", "r4", or "4"; returns -1 when the text does not name a
// register.
int parse_reg(std::string_view text);

}  // namespace t1000
