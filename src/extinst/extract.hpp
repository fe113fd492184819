// Maximal candidate-sequence extraction (paper Section 4).
//
// Within each basic block, grows maximal dependence chains of candidate
// instructions. An instruction is a candidate when:
//   * its opcode is PFU-eligible (narrow ALU/logic/shift-immediate ops),
//   * the profile saw it execute with operand and result bit widths at or
//     below the policy threshold (default 18 bits, as in the paper),
//   * it produces a register result.
// A chain extends i -> j when j is the *only* reader of i's value, the
// value dies inside the block (single-output constraint), j's remaining
// operands are defined before the chain started (or outside the block),
// and the chain keeps to the policy's external-input cap and the maximum
// fusable length. With max_outputs > 1 the single-output constraint
// relaxes: a chain may also extend through a member whose value escapes
// the block, as long as the escaping value is preserved as an extra EXT
// output (the member is marked `live` in the site).
#pragma once

#include <string>
#include <vector>

#include "asmkit/program.hpp"
#include "cfg/cfg.hpp"
#include "cfg/liveness.hpp"
#include "extinst/chain.hpp"
#include "sim/profiler.hpp"

namespace t1000 {

struct ExtractPolicy {
  int max_width = 18;   // operand/result bit-width ceiling for candidates
  int min_length = 2;   // shortest sequence worth a PFU
  int max_length = kMaxUops;
  bool require_executed = true;  // skip never-executed instructions
  // Candidate shape (paper Section 4 defaults; widening explores the
  // fig. 7-style trade against PFU operand ports / result buses). validate()
  // holds it to the ISA ceiling kMaxExtInputs/kMaxExtOutputs.
  int max_inputs = 2;   // distinct external register inputs per chain
  int max_outputs = 1;  // register outputs (primary + live interior members)
};

// Checks the candidate shape: min_length and max_length in [1, kMaxUops],
// max_inputs in [1, kMaxExtInputs] and max_outputs in [1, kMaxExtOutputs].
// Returns an empty string for a usable policy, otherwise a message naming
// the first bad field, its range and its value, as validate(MachineConfig)
// does.
std::string validate(const ExtractPolicy& policy);

// All maximal candidate sites in `program`, ordered by first position.
// `policy` must pass validate(); analyze_program refuses one that does not.
std::vector<SeqSite> extract_sites(const Program& program, const Cfg& cfg,
                                   const Liveness& liveness,
                                   const Profile& profile,
                                   const ExtractPolicy& policy = {});

}  // namespace t1000
