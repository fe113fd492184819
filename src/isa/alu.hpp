// Pure ALU semantics, shared by the functional simulator and the
// micro-program evaluator inside PFU configurations.
#pragma once

#include <bit>
#include <cstdint>

#include "isa/opcode.hpp"

namespace t1000 {

// Evaluates an ALU-class opcode over already-selected operand values.
// For shift-immediate ops, `b` is the shift amount; for ALU-immediate ops,
// `b` must already be sign- or zero-extended per `imm_extension`; for LUI,
// `b` is the 16-bit immediate. Non-ALU opcodes are a programming error.
std::uint32_t eval_alu(Opcode op, std::uint32_t a, std::uint32_t b);

// How the 16-bit immediate of an ALU-immediate opcode extends to 32 bits.
enum class ImmExtension { kSign, kZero };
ImmExtension imm_extension(Opcode op);

// Extends `imm16` (stored as int32) per the opcode's rule.
std::uint32_t extend_imm(Opcode op, std::int32_t imm);

// Two's-complement significant width of `v` in bits (1..32): the narrowest
// signed representation, e.g. 0 -> 1, 3 -> 3, -3 -> 3, 0x1FFFF -> 18.
// This is the quantity the paper's profiler measures to decide whether an
// operation is narrow enough for PFU implementation. Inline: the profiler
// evaluates it for every operand of every committed instruction.
inline int signed_width(std::uint32_t v) {
  const std::uint32_t key =
      (v & 0x8000'0000u) != 0 ? ~v : v;  // strip redundant sign bits
  return 33 - std::countl_zero(key);
}

}  // namespace t1000
