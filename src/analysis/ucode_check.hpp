// Structural verification of a pre-decoded uop stream (sim/ucode.hpp)
// against its source program — the `ucode.*` rule family (DESIGN.md §14).
//
// The pre-decoded interpreter is the default functional path, so a decoder
// bug would silently corrupt every trace, profile, and checksum downstream.
// This pass re-derives what each decoded uop *must* look like from the
// instruction fields alone — mirror kind, flattened registers, resolved
// immediates, rewritten control targets, sentinel placement — and
// diagnoses any drift:
//
//  * ucode.stream-size — stream length is program size + 1 (the sentinel);
//  * ucode.sentinel    — the sentinel sits exactly at offset size();
//  * ucode.kind        — a regular instruction's uop mirrors its opcode;
//  * ucode.interp      — kInterp is used exactly for the irregular cases
//    (out-of-range register fields, static control targets outside
//    [0, size], unresolved EXT Conf ids) and never for a regular one;
//  * ucode.operands    — register indices match the instruction fields;
//  * ucode.imm         — immediates resolved per kind: shift amounts
//    pre-masked, ALU immediates pre-extended (extend_imm), LUI values
//    precomputed, load/store displacements verbatim, EXT Conf ids bound;
//  * ucode.target      — control targets equal the instruction target and
//    stay inside [0, size];
//  * ucode.ext         — EXT uops resolve against a present table.
//
// verify_module() runs the family on every well-formed module (building
// the decoded form on the fly), so `t1000-verify` and the harness's
// --verify pre-flight hold the decoder to the same standard as the
// rewrite pipeline.
#pragma once

#include "analysis/diagnostic.hpp"
#include "sim/ucode.hpp"

namespace t1000 {

// Appends `ucode.*` diagnostics for `ucode` (checked against
// *ucode.program / ucode.table) to `report`.
void check_ucode(const UopProgram& ucode, VerifyReport& report);

// Standalone convenience: a fresh report holding only the `ucode.*`
// findings for an already-decoded stream.
VerifyReport verify_ucode(const UopProgram& ucode);

}  // namespace t1000
