// Pre-decoded threaded-code form of a program for functional execution.
//
// The reference interpreter (Executor's ExecMode::kReference path) pays a
// two-level dispatch per step — op_kind() table lookup, then an inner
// switch — plus src_regs()/extend_imm() re-derivation and a full StepInfo
// materialization even when nobody reads it. Trace recording and profiling
// take that cost on every committed instruction; recording is about a
// fifth of a cold paper sweep, second only to timing replay (about two
// thirds).
//
// UopProgram lowers the text segment once into a dense uop stream the
// interpreter can thread through:
//
//  * one Uop per instruction, at the same index — plus a trailing halt
//    sentinel at offset size() so the off-the-end return path (`jr $ra`
//    out of the entry function) is ordinary dispatch, not a special case;
//  * operands resolved at decode time: register indices flattened into
//    the uop, ALU immediates pre-extended (extend_imm), shift amounts and
//    LUI values precomputed, EXT uops bound to their configuration table;
//  * control targets rewritten to uop offsets (== instruction indices;
//    the stream is dense) and range-checked at decode, so taken branches
//    are a single indexed jump at run time;
//  * irregular instructions — out-of-range static targets, unresolved
//    EXT Conf ids, register fields past the file — lower to kInterp,
//    which defers that one step to the reference interpreter so the fast
//    path never has to reproduce error semantics.
//
// The dispatch loop itself (ucode.cpp) is computed goto, one indirect
// branch per handler; the build requires a compiler with labels as values
// (GCC, Clang). This form is trusted as the only functional path because
// of the tests under tests/sim/: the differential and fuzz suites run it
// in lockstep with the reference interpreter, the golden fixtures pin the
// disassembly of three decode corners, and the decode table pins the
// lowering of every opcode and every irregular case.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "asmkit/program.hpp"
#include "isa/extdef.hpp"

namespace t1000 {

// Bump when the decoded form or its execution semantics change; part of
// the result-cache identity (harness/cache.hpp) next to
// kTraceFormatVersion, so memoized outcomes recorded by an older decoder
// can never be replayed as if the new one produced them.
inline constexpr int kUcodeFormatVersion = 1;

// Dispatch index of a uop. One entry per distinct handler in the threaded
// interpreter; dense, so computed-goto tables index it directly.
enum class UopKind : std::uint8_t {
  // Three-register ALU (rd <- rs op rt).
  kAddu, kSubu, kAnd, kOr, kXor, kNor, kSlt, kSltu, kSllv, kSrlv, kSrav,
  kMul,
  // Shift by immediate (rd <- rs op imm; imm = shamt).
  kSll, kSrl, kSra,
  // ALU immediate (rd <- rs op imm; imm pre-extended per extend_imm).
  kAddiu, kAndi, kOri, kXori, kSlti, kSltiu,
  // rd <- imm (the full 32-bit value, precomputed at decode).
  kLui,
  // Memory (imm = displacement).
  kLw, kLh, kLhu, kLb, kLbu, kSw, kSh, kSb,
  // Control (target = successor uop index when taken).
  kBeq, kBne, kBlez, kBgtz, kBltz, kBgez, kJ, kJal, kJr, kJalr,
  // Specials.
  kNop, kHalt,
  // Extended instruction (imm = Conf id, resolved against the table).
  kExt,
  // Off-the-end clean halt: the uop at offset size().
  kSentinel,
  // Irregular instruction: defer this one step to the reference
  // interpreter (error semantics, out-of-range fields).
  kInterp,

  kNumUopKinds,
};
inline constexpr int kNumUopKinds = static_cast<int>(UopKind::kNumUopKinds);

// Stable lowercase name of `kind` ("addu", "sentinel", ...); used by the
// disassembly listing and diagnostics.
std::string_view uop_kind_name(UopKind kind);

// One pre-decoded instruction. 12 bytes, meaning of `imm`/`target` per
// UopKind (see the enum comments). Non-control uops fall through to the
// next offset implicitly.
struct Uop {
  UopKind kind = UopKind::kNop;
  Reg rd = 0;
  Reg rs = 0;
  Reg rt = 0;
  std::int32_t imm = 0;
  std::int32_t target = 0;

  friend bool operator==(const Uop&, const Uop&) = default;
};

// The decoded program: built once per (program, table), immutable
// afterwards, shared read-only by any number of executors (the grid
// caches one per AnalyzedProgram / prepared run). Both referents must
// outlive the UopProgram.
struct UopProgram {
  const Program* program = nullptr;
  const ExtInstTable* table = nullptr;  // null for EXT-free programs
  std::vector<Uop> uops;                // program->size() + 1 (sentinel last)

  static UopProgram build(const Program& program, const ExtInstTable* table);
};

// Deterministic textual listing of the decoded stream, one line per uop;
// the golden decode fixtures pin this format.
std::string disassemble(const UopProgram& ucode);

}  // namespace t1000
