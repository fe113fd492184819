#include "uarch/branch.hpp"

namespace t1000 {

BranchPredictor::BranchPredictor(const BranchPredictorConfig& config)
    : config_(config),
      counters_(config.bimodal_entries, 1),  // weakly not-taken
      last_target_(config.target_entries, -1) {}

bool BranchPredictor::predict_and_update(Opcode op, std::int32_t pc_index,
                                         bool taken,
                                         std::int32_t target_index) {
  if (config_.kind == BranchPredictorKind::kPerfect) return true;

  if (is_branch(op)) {
    ++stats_.conditional;
    bool predicted_taken = false;
    if (config_.kind == BranchPredictorKind::kBimodal ||
        config_.kind == BranchPredictorKind::kGshare) {
      std::uint32_t index = static_cast<std::uint32_t>(pc_index);
      if (config_.kind == BranchPredictorKind::kGshare) index ^= history_;
      std::uint8_t& ctr = counters_[index & (config_.bimodal_entries - 1)];
      predicted_taken = ctr >= 2;
      if (taken && ctr < 3) ++ctr;
      if (!taken && ctr > 0) --ctr;
      history_ = (history_ << 1) | (taken ? 1u : 0u);
    }
    const bool correct = predicted_taken == taken;
    if (!correct) ++stats_.cond_mispredicts;
    return correct;
  }

  if (op_kind(op) == OpKind::kJumpReg) {
    // Register-indirect jumps: predicted by the last observed target
    // (a one-entry-per-pc BTB). Perfect prediction never reaches here.
    ++stats_.indirect;
    std::int32_t& slot = last_target_[static_cast<std::uint32_t>(pc_index) &
                                      (config_.target_entries - 1)];
    const bool correct = slot == target_index;
    slot = target_index;
    if (!correct) ++stats_.indirect_mispredicts;
    return correct;
  }

  // Direct jumps (j/jal) have static targets: always predicted.
  return true;
}

}  // namespace t1000
