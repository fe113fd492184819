// Branch prediction models.
//
// The paper simulates perfect branch prediction (Section 3.1). To check
// that its conclusions do not hinge on that assumption, the timing model
// also supports a classic bimodal predictor (2-bit saturating counters) and
// a static not-taken baseline, with a last-target table for register jumps.
// Mispredictions are modelled as front-end stalls: fetch halts at the
// mispredicted branch and resumes a fixed redirect penalty after the branch
// resolves (no wrong-path execution, the standard approximation for
// execution-driven simulators).
#pragma once

#include <cstdint>
#include <vector>

#include "isa/instruction.hpp"

namespace t1000 {

enum class BranchPredictorKind {
  kPerfect,         // the paper's configuration
  kBimodal,         // 2-bit counters indexed by branch pc
  kGshare,          // 2-bit counters indexed by pc XOR global history
  kStaticNotTaken,  // always predicts fall-through
};

struct BranchPredictorConfig {
  BranchPredictorKind kind = BranchPredictorKind::kPerfect;
  std::uint32_t bimodal_entries = 2048;  // power of two
  std::uint32_t target_entries = 256;    // last-target table for jr/jalr
  int mispredict_penalty = 3;            // extra front-end redirect cycles
};

struct BranchStats {
  std::uint64_t conditional = 0;
  std::uint64_t cond_mispredicts = 0;
  std::uint64_t indirect = 0;
  std::uint64_t indirect_mispredicts = 0;

  double cond_accuracy() const {
    return conditional == 0
               ? 1.0
               : 1.0 - static_cast<double>(cond_mispredicts) /
                           static_cast<double>(conditional);
  }
};

class BranchPredictor {
 public:
  explicit BranchPredictor(const BranchPredictorConfig& config);

  // Consults and trains the predictor for the control instruction `op` at
  // index `pc_index` whose actual outcome is `taken` with successor
  // `target_index`. Returns true when the prediction was correct.
  bool predict_and_update(Opcode op, std::int32_t pc_index, bool taken,
                          std::int32_t target_index);

  const BranchStats& stats() const { return stats_; }
  const BranchPredictorConfig& config() const { return config_; }

 private:
  BranchPredictorConfig config_;
  std::vector<std::uint8_t> counters_;      // 2-bit saturating
  std::vector<std::int32_t> last_target_;   // -1 = empty
  std::uint32_t history_ = 0;               // gshare global history
  BranchStats stats_;
};

}  // namespace t1000
