// The bank of programmable functional units.
//
// Section 2.2: each extended instruction carries a Conf field that is
// compared against the ID tag saved in each PFU at decode. A match behaves
// like a cache hit and the instruction dispatches normally; otherwise the
// configuration bits are loaded into the least-recently-used PFU before the
// instruction can issue, costing the reconfiguration latency.
#pragma once

#include <cstdint>
#include <vector>

#include "isa/instruction.hpp"
#include "uarch/config.hpp"

namespace t1000 {

struct PfuStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t reconfigurations = 0;
};

// Observation hook for the bank's reconfigurations. The default listener
// is null and costs one predictable branch per reconfiguration; listeners
// must not influence timing — PfuStats (and thus SimStats) are identical
// with and without one attached.
class PfuListener {
 public:
  virtual ~PfuListener() = default;
  // Reconfiguration of `unit` to `conf` spanning [start, ready); `evicted`
  // is the configuration overwritten (kInvalidConf for a cold unit).
  virtual void on_pfu_reconfig(int unit, ConfId conf, ConfId evicted,
                               std::uint64_t start, std::uint64_t ready) = 0;
};

class PfuBank {
 public:
  explicit PfuBank(const PfuConfig& config);

  // Decode-stage tag check at cycle `now`. Returns the cycle from which the
  // extended instruction may issue: `now` on a hit, or the completion time
  // of the reconfiguration started for it. Throws SimError on a bank of
  // zero PFUs, which cannot execute an extended instruction at all.
  std::uint64_t request(ConfId conf, std::uint64_t now);

  void set_listener(PfuListener* listener) { listener_ = listener; }

  const PfuStats& stats() const { return stats_; }
  bool unlimited() const { return config_.count == PfuConfig::kUnlimited; }
  int size() const;

 private:
  struct Unit {
    ConfId conf = kInvalidConf;
    std::uint64_t ready_at = 0;  // reconfiguration completion
    std::uint64_t last_use = 0;  // LRU clock
  };

  PfuConfig config_;
  PfuListener* listener_ = nullptr;
  std::vector<Unit> units_;
  // conf -> unit index, kNotLoaded if none holds it. ConfIds are dense
  // (ExtInstTable::intern hands them out in order), so a vector suffices.
  static constexpr std::int32_t kNotLoaded = -1;
  std::vector<std::int32_t> where_;
  std::uint64_t tick_ = 0;
  PfuStats stats_;
};

}  // namespace t1000
