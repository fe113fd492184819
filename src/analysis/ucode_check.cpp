#include "analysis/ucode_check.hpp"

#include <string>

#include "isa/alu.hpp"
#include "isa/instruction.hpp"
#include "isa/opcode.hpp"

namespace t1000 {
namespace {

std::string uop_loc(std::size_t i) { return "uop " + std::to_string(i); }

void emit(VerifyReport& report, std::string rule_id, std::string location,
          std::string message) {
  report.diagnostics.push_back(Diagnostic{Severity::kError, std::move(rule_id),
                                          std::move(location),
                                          std::move(message)});
}

// The decoder's irregularity predicate, re-derived from the instruction
// fields: these are exactly the cases whose error (or range-check)
// semantics belong to the reference interpreter, so they must lower to
// kInterp — and nothing else may.
bool must_interp(const Instruction& ins, std::int32_t size,
                 const ExtInstTable* table) {
  if (ins.rd >= kNumRegs || ins.rs >= kNumRegs || ins.rt >= kNumRegs) {
    return true;
  }
  const OpKind kind = op_kind(ins.op);
  if (kind == OpKind::kBranch1 || kind == OpKind::kBranch2 ||
      kind == OpKind::kJump) {
    if (ins.imm < 0 || ins.imm > size) return true;
  }
  if (kind == OpKind::kExt) {
    if (table == nullptr || ins.conf >= table->size()) return true;
    // MIMO shapes exceed the 12-byte uop's two-source/one-dest payload;
    // the decoder defers them to the reference interpreter.
    const ExtInstDef& def = table->at(ins.conf);
    if (def.num_inputs() > 2 || def.num_outputs() > 1) return true;
  }
  return false;
}

// The immediate the decoded uop must carry for a regular (non-interp)
// lowering of `ins`, resolved per operand class.
std::int32_t expected_imm(const Instruction& ins) {
  switch (op_kind(ins.op)) {
    case OpKind::kShiftImm:
      return ins.imm & 31;
    case OpKind::kAluImm:
      return static_cast<std::int32_t>(extend_imm(ins.op, ins.imm));
    case OpKind::kLui:
      return static_cast<std::int32_t>(
          static_cast<std::uint32_t>(ins.imm & 0xFFFF) << 16);
    case OpKind::kLoad:
    case OpKind::kStore:
      return ins.imm;
    case OpKind::kExt:
      return static_cast<std::int32_t>(ins.conf);
    default:
      return 0;  // control carries `target`; nop/halt/alu3 carry nothing
  }
}

void check_uop(const Uop& u, const Instruction& ins, std::size_t i,
               std::int32_t size, const ExtInstTable* table,
               VerifyReport& report) {
  if (must_interp(ins, size, table)) {
    if (u.kind != UopKind::kInterp) {
      emit(report, "ucode.interp", uop_loc(i),
           "irregular instruction '" + to_string(ins) + "' lowered to '" +
               std::string(uop_kind_name(u.kind)) +
               "' instead of interp — the fast path cannot reproduce its "
               "error semantics");
    }
    return;  // an interp uop's payload fields are unused
  }
  if (u.kind == UopKind::kInterp) {
    emit(report, "ucode.interp", uop_loc(i),
         "regular instruction '" + to_string(ins) +
             "' deferred to the reference interpreter");
    return;
  }

  // Mirror kind: the regular lowering is the Opcode<->UopKind identity
  // cast (anchored by static_asserts in sim/ucode.cpp).
  const auto mirror =
      static_cast<UopKind>(static_cast<std::uint8_t>(ins.op));
  if (u.kind != mirror) {
    emit(report, "ucode.kind", uop_loc(i),
         "instruction '" + to_string(ins) + "' decoded as '" +
             std::string(uop_kind_name(u.kind)) + "', expected '" +
             std::string(uop_kind_name(mirror)) + "'");
    return;  // kind mismatch makes the payload checks meaningless
  }

  if (u.rd != ins.rd || u.rs != ins.rs || u.rt != ins.rt) {
    emit(report, "ucode.operands", uop_loc(i),
         "register fields (rd=" + std::to_string(u.rd) +
             ", rs=" + std::to_string(u.rs) + ", rt=" + std::to_string(u.rt) +
             ") do not match '" + to_string(ins) + "'");
  }

  const OpKind kind = op_kind(ins.op);
  const bool is_control = kind == OpKind::kBranch1 ||
                          kind == OpKind::kBranch2 || kind == OpKind::kJump;
  if (is_control) {
    if (u.target != ins.imm) {
      emit(report, "ucode.target", uop_loc(i),
           "control target " + std::to_string(u.target) +
               " does not match instruction target " +
               std::to_string(ins.imm));
    } else if (u.target < 0 || u.target > size) {
      emit(report, "ucode.target", uop_loc(i),
           "control target " + std::to_string(u.target) + " outside [0, " +
               std::to_string(size) + "]");
    }
  } else {
    const std::int32_t want = expected_imm(ins);
    if (u.imm != want) {
      emit(report, "ucode.imm", uop_loc(i),
           "resolved immediate " + std::to_string(u.imm) + " != expected " +
               std::to_string(want) + " for '" + to_string(ins) + "'");
    }
  }

  if (u.kind == UopKind::kExt) {
    // must_interp() already vouched for the table and Conf range; re-check
    // against the *decoded* Conf id, which is what the handler indexes.
    if (table == nullptr || u.imm < 0 ||
        u.imm >= static_cast<std::int32_t>(table->size())) {
      emit(report, "ucode.ext", uop_loc(i),
           "EXT uop Conf " + std::to_string(u.imm) +
               " unresolvable against the configuration table");
    }
  }
}

}  // namespace

void check_ucode(const UopProgram& ucode, VerifyReport& report) {
  const Program& program = *ucode.program;
  const auto size = static_cast<std::int32_t>(program.size());

  if (ucode.uops.size() != program.text.size() + 1) {
    emit(report, "ucode.stream-size", "uop stream",
         std::to_string(ucode.uops.size()) + " uops for " +
             std::to_string(program.text.size()) +
             " instructions (expected size + sentinel)");
    return;  // offsets below assume the dense uop == instruction layout
  }
  for (std::size_t i = 0; i < ucode.uops.size(); ++i) {
    const bool is_sentinel = ucode.uops[i].kind == UopKind::kSentinel;
    const bool want_sentinel = i == program.text.size();
    if (is_sentinel != want_sentinel) {
      emit(report, "ucode.sentinel", uop_loc(i),
           want_sentinel
               ? "stream does not end in the off-the-end halt sentinel"
               : "sentinel in the middle of the stream");
      if (want_sentinel) continue;
      return;  // a displaced sentinel breaks the dense-offset invariant
    }
  }
  for (std::size_t i = 0; i < program.text.size(); ++i) {
    check_uop(ucode.uops[i], program.text[i], i, size, ucode.table, report);
  }
}

VerifyReport verify_ucode(const UopProgram& ucode) {
  VerifyReport report;
  check_ucode(ucode, report);
  return report;
}

}  // namespace t1000
