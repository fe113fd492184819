// Static verifier for the T1000 IR and the extended-instruction pipeline
// (DESIGN.md §11). The paper's contribution rests on compile-time
// guarantees — a candidate sequence may be collapsed into an extended
// instruction only if it is arithmetic/logic, has at most two register
// inputs and one register output, operates on operands of at most 18
// significant bits, and fits the ~150-LUT PFU budget (§3–§5) — and this
// pass re-derives every one of those properties from first principles
// instead of trusting extract/select/rewrite to have preserved them.
//
// Four check families, each with stable rule ids:
//
//  * module/CFG well-formedness (`wf.*`): branch/jump targets and text
//    symbols in range post-rewrite, register fields in range, EXT `conf`
//    references resolved by the table, defs-before-uses along all paths;
//  * extended-instruction legality (`ext.*`, `rw.*`): per application the
//    micro-program, inputs, and outputs are *recomputed* from the original
//    program text and checked against the selection — inputs/outputs
//    within the configured shape (default 2-in/1-out; unclaimed
//    intermediates dead past the EXT), candidate-class opcodes only,
//    profiled widths within the ceiling, recomputed LUT cost within
//    budget, and the rewritten binary's EXT landing/clobber safety;
//  * translation validation (`equiv.*`, analysis/equiv.hpp): the rewritten
//    binary is proven to be the baseline with exactly the covered windows
//    replaced, and each EXT's semantics are proven against the covered
//    baseline instructions by symbolic execution over a normalized
//    expression DAG, for all 2^32 values of every input, with a liveness
//    proof that every register a window kills but its EXT no longer writes
//    is dead at the rewrite point. This is the verifier's one proof that a
//    collapsed chain computes the same function as its instructions;
//  * bitwidth soundness (`width.*`): the profiler-observed widths the
//    extractor trusted are cross-checked against a conservative static
//    value-range bound; inputs whose narrowness only the profile vouches
//    for are reported in the width audit.
#pragma once

#include "analysis/diagnostic.hpp"
#include "extinst/rewrite.hpp"
#include "extinst/select.hpp"

namespace t1000 {

// The candidate shape an application is held to — width ceiling, length
// range, inputs and outputs — is the one the program was analyzed under
// (AnalyzedProgram::extract, validated by analyze_program); only what
// selection adds is an option here.
struct VerifyOptions {
  int lut_budget = 150;     // PFU capacity (§6, Figure 7)
  // Promote width-audit entries (profile-only narrowness claims) to
  // `width.profile-only` warnings.
  bool pedantic = false;
};

// Derives VerifyOptions from the selection policy a run was compiled
// under, so the verifier holds the pipeline to the LUT budget it actually
// used rather than the paper default.
VerifyOptions verify_options_for(const SelectPolicy& policy);

// Module-level well-formedness only (`wf.*` rules): any program, with or
// without EXT instructions. `table` may be null for table-free programs.
VerifyReport verify_module(const Program& program, const ExtInstTable* table,
                           const VerifyOptions& options = {});

// Full pipeline verification: module checks on the rewritten program plus
// legality, width, and translation-validation checks for every application
// in `selection` against the *original* analyzed program. `rewrite` must
// be the result of applying `selection.apps` to `ap`'s program.
VerifyReport verify_selection(const AnalyzedProgram& ap,
                              const Selection& selection,
                              const RewriteResult& rewrite,
                              const VerifyOptions& options = {});

}  // namespace t1000
