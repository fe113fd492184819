// Translation validation for EXT rewrites (`equiv.*` rules, DESIGN.md §16).
//
// The legality rules (`ext.*`, `rw.*`) re-derive each application from the
// original program text and hold the selection to it. This pass closes the
// remaining gap: it proves, independently of how the rewrite was computed,
// that the *rewritten binary* is the baseline program with exactly the
// covered windows replaced, and that each replacement computes the same
// function as the instructions it displaced.
//
// Four rule families, one proof obligation each:
//
//  * `equiv.map` — the old→new index map is a well-formed deletion map:
//    size n+1, monotone, steps of 0/1 only, dense onto the rewritten text;
//  * `equiv.replaced` — covered non-landing positions are deleted, landing
//    positions carry an EXT, every uncovered instruction survives
//    byte-identically (control targets aside), and the data segment and
//    symbol tables are untouched modulo the index map;
//  * `equiv.target` — every surviving branch/jump target equals the index
//    map's image of its baseline target;
//  * `equiv.symbolic` — per application, the covered baseline instructions
//    and the bound configuration's micro-program are both evaluated
//    symbolically over one input valuation; each claimed output must reduce
//    to the same node of a normalized expression DAG (hash-consed, with
//    constant folding and commutative-operand canonicalization), which
//    proves equality over the entire input space;
//  * `equiv.dead-kill` — backward liveness on the *rewritten* program
//    proves every register a window killed but its EXT no longer writes is
//    dead at the rewrite point.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/verifier.hpp"

namespace t1000 {

// Hash-consed symbolic expression DAG over the candidate ALU fragment.
// Construction normalizes: constant operands fold through eval_alu,
// commutative operations (addu/and/or/xor/nor) order their operands
// canonically, and identity operations (x+0, x|0, x^0, x>>0, x-0, x&0)
// reduce. Node ids are value identities: two expressions that normalize to
// the same id compute the same function of the input leaves.
class SymbolicPool {
 public:
  using NodeId = std::int32_t;
  static constexpr NodeId kInvalid = -1;

  // Leaf for input slot `slot` (the PFU operand / bound register).
  NodeId input(int slot);
  // Leaf for an unaccounted-for register value: unique per register, never
  // equal to any input or constant (a proof touching poison fails).
  NodeId poison(int reg);
  NodeId constant(std::uint32_t value);
  // op must be an ALU-class opcode (eval_alu-evaluable); `b` carries the
  // shift amount / extended immediate as a constant node where applicable.
  NodeId apply(Opcode op, NodeId a, NodeId b);

  // Renders the expression rooted at `id` ("addu(in0, 4)").
  std::string render(NodeId id) const;
  std::size_t size() const { return nodes_.size(); }

 private:
  enum class Kind : std::uint8_t { kInput, kPoison, kConst, kOp };
  struct Node {
    Kind kind = Kind::kConst;
    Opcode op = Opcode::kNop;  // kOp only
    std::uint32_t value = 0;   // kConst: value; kInput: slot; kPoison: reg
    NodeId a = kInvalid;
    NodeId b = kInvalid;

    friend bool operator==(const Node&, const Node&) = default;
  };

  NodeId intern(const Node& n);

  std::vector<Node> nodes_;
};

// Runs the `equiv.*` translation-validation rules for `selection`/`rewrite`
// against the baseline `ap`, appending diagnostics to `report` and bumping
// report.stats.translation_proven per symbolically proven application.
void check_translation(const AnalyzedProgram& ap, const Selection& selection,
                       const RewriteResult& rewrite, VerifyReport& report);

}  // namespace t1000
