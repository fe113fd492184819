// The decoded instruction representation shared by the assembler, the
// functional simulator, the selection algorithms, and the timing model.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "isa/opcode.hpp"
#include "isa/reg.hpp"

namespace t1000 {

// Configuration id carried by EXT instructions (the paper's `Conf` field).
using ConfId = std::uint16_t;
inline constexpr ConfId kInvalidConf = 0xFFFF;
// Width of the Conf field in the binary encoding (Section 2.2 adds the
// field to a register-register format; 11 bits fit in the shamt+funct
// space of an R-type word).
inline constexpr int kConfBits = 11;
// More PFUs than encodable Conf ids could never all be loaded: the bound
// on a machine's PFU count and on a selection policy's.
inline constexpr int kMaxPfus = 1 << kConfBits;

// MIMO shape ceiling for extended instructions (ByoRISC-style widening of
// the paper's 2-in/1-out candidate restriction). The first two inputs ride
// in rs/rt and the first output in rd, exactly as in the paper; extra
// operand bindings are packed into the EXT word's otherwise-unused `imm`
// field (see pack_ext_extras), so imm == 0 keeps the original encoding.
inline constexpr int kMaxExtInputs = 4;
inline constexpr int kMaxExtOutputs = 2;

struct Instruction {
  Opcode op = Opcode::kNop;
  Reg rd = 0;  // destination (also link register for jalr)
  Reg rs = 0;  // first source / base address register
  Reg rt = 0;  // second source / store data register
  // Immediate: ALU immediate (sign/zero extension applied by the executor),
  // shift amount, memory displacement, an absolute instruction index for
  // branch/jump targets, or packed extra EXT operands (pack_ext_extras).
  std::int32_t imm = 0;
  ConfId conf = kInvalidConf;  // EXT only

  friend bool operator==(const Instruction&, const Instruction&) = default;
};

// Source registers read by `ins` (excluding the hardwired $zero is the
// caller's business). At most two for every opcode except EXT, which may
// carry up to kMaxExtInputs.
struct SrcRegs {
  std::array<Reg, kMaxExtInputs> reg{};
  int count = 0;
};
SrcRegs src_regs(const Instruction& ins);

// Destination register written by `ins`, if any. Writes to $zero are
// reported as no destination (they are architectural no-ops).
std::optional<Reg> dst_reg(const Instruction& ins);

// All destination registers written by `ins` ($zero writes elided). Only
// EXT can have more than one.
struct DstRegs {
  std::array<Reg, kMaxExtOutputs> reg{};
  int count = 0;
};
DstRegs dst_regs(const Instruction& ins);

// --- Extra EXT operand encoding -------------------------------------------
//
// imm bit layout for EXT (each field is 6 bits: bit 5 = "bound", bits 4:0 =
// register number, so $zero is representable as an extra binding):
//   [5:0]   third register input
//   [11:6]  fourth register input
//   [17:12] second register output
// imm == 0 means "no extra operands" — the classic 2-in/1-out shape.
std::int32_t pack_ext_extras(const std::vector<Reg>& extra_in,
                             const std::vector<Reg>& extra_out);

// Extra input registers bound beyond rs/rt; returns the count (0..2) and
// fills `out[0..count)`. `ins` must be an EXT.
int ext_extra_inputs(const Instruction& ins,
                     std::array<Reg, kMaxExtInputs - 2>& out);
// Extra output registers bound beyond rd; returns the count (0..1).
int ext_extra_outputs(const Instruction& ins,
                      std::array<Reg, kMaxExtOutputs - 1>& out);

// True when `ins` reads `r` / writes `r`.
bool reads_reg(const Instruction& ins, Reg r);
bool writes_reg(const Instruction& ins, Reg r);

// Renders `ins` as assembly text; branch/jump targets are printed as
// absolute instruction indices ("@12") unless the caller substitutes
// symbols.
std::string to_string(const Instruction& ins);

// --- Factories (keep call sites terse in tests and workload builders) ---
Instruction make_r(Opcode op, Reg rd, Reg rs, Reg rt);
Instruction make_shift(Opcode op, Reg rd, Reg rs, int shamt);
Instruction make_imm(Opcode op, Reg rd, Reg rs, std::int32_t imm);
Instruction make_lui(Reg rd, std::int32_t imm);
Instruction make_mem(Opcode op, Reg data, Reg base, std::int32_t disp);
Instruction make_branch2(Opcode op, Reg rs, Reg rt, std::int32_t target);
Instruction make_branch1(Opcode op, Reg rs, std::int32_t target);
Instruction make_jump(Opcode op, std::int32_t target);
Instruction make_jr(Reg rs);
Instruction make_jalr(Reg rd, Reg rs);
Instruction make_ext(Reg rd, Reg rs, Reg rt, ConfId conf);
// MIMO form: extra inputs beyond rs/rt and extra outputs beyond rd are
// packed into `imm` (pack_ext_extras). Empty vectors reproduce the classic
// shape bit-for-bit.
Instruction make_ext(Reg rd, Reg rs, Reg rt, ConfId conf,
                     const std::vector<Reg>& extra_in,
                     const std::vector<Reg>& extra_out);
Instruction make_nop();
Instruction make_halt();

}  // namespace t1000
