#include "isa/alu.hpp"

#include <cassert>

namespace t1000 {

std::uint32_t eval_alu(Opcode op, std::uint32_t a, std::uint32_t b) {
  const auto s = [](std::uint32_t v) { return static_cast<std::int32_t>(v); };
  switch (op) {
    case Opcode::kAddu:
    case Opcode::kAddiu:
      return a + b;
    case Opcode::kSubu:
      return a - b;
    case Opcode::kAnd:
    case Opcode::kAndi:
      return a & b;
    case Opcode::kOr:
    case Opcode::kOri:
      return a | b;
    case Opcode::kXor:
    case Opcode::kXori:
      return a ^ b;
    case Opcode::kNor:
      return ~(a | b);
    case Opcode::kSlt:
    case Opcode::kSlti:
      return s(a) < s(b) ? 1 : 0;
    case Opcode::kSltu:
    case Opcode::kSltiu:
      return a < b ? 1 : 0;
    case Opcode::kSll:
    case Opcode::kSllv:
      return a << (b & 31);
    case Opcode::kSrl:
    case Opcode::kSrlv:
      return a >> (b & 31);
    case Opcode::kSra:
    case Opcode::kSrav:
      return static_cast<std::uint32_t>(s(a) >> (b & 31));
    case Opcode::kMul:
      return a * b;
    case Opcode::kLui:
      return b << 16;
    default:
      assert(false && "eval_alu: not an ALU opcode");
      return 0;
  }
}

ImmExtension imm_extension(Opcode op) {
  switch (op) {
    case Opcode::kAndi:
    case Opcode::kOri:
    case Opcode::kXori:
      return ImmExtension::kZero;
    default:
      return ImmExtension::kSign;
  }
}

std::uint32_t extend_imm(Opcode op, std::int32_t imm) {
  if (imm_extension(op) == ImmExtension::kZero) {
    return static_cast<std::uint32_t>(imm) & 0xFFFF;
  }
  return static_cast<std::uint32_t>(imm);  // already sign-correct in int32
}

}  // namespace t1000
