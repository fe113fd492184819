#include "uarch/pfu.hpp"

#include <algorithm>
#include <cassert>

#include "sim/executor.hpp"

namespace t1000 {

PfuBank::PfuBank(const PfuConfig& config) : config_(config) {
  if (!unlimited()) {
    assert(config_.count >= 0);
    units_.resize(static_cast<std::size_t>(config_.count));
  }
}

int PfuBank::size() const { return static_cast<int>(units_.size()); }

std::uint64_t PfuBank::request(ConfId conf, std::uint64_t now) {
  ++stats_.lookups;
  ++tick_;

  if (conf >= where_.size()) where_.resize(conf + std::size_t{1}, kNotLoaded);
  if (const std::int32_t held = where_[conf]; held != kNotLoaded) {
    Unit& unit = units_[static_cast<std::size_t>(held)];
    unit.last_use = tick_;
    ++stats_.hits;  // tag match; may still wait on an in-flight load
    return unit.ready_at <= now ? now : unit.ready_at;
  }

  if (unlimited()) {
    // Every configuration gets its own unit; the first use still pays one
    // reconfiguration (irrelevant when the latency is zero).
    ++stats_.reconfigurations;
    Unit unit;
    unit.conf = conf;
    unit.ready_at = now + static_cast<std::uint64_t>(config_.reconfig_latency);
    unit.last_use = tick_;
    where_[conf] = static_cast<std::int32_t>(units_.size());
    units_.push_back(unit);
    if (listener_ != nullptr) {
      listener_->on_pfu_reconfig(static_cast<int>(units_.size()) - 1, conf,
                                 kInvalidConf, now, unit.ready_at);
    }
    return unit.ready_at;
  }

  if (units_.empty()) {
    // A program with EXT needs a machine with PFUs to run it on.
    throw SimError("timing: EXT dispatched on a machine without PFUs "
                   "(pfu.count = 0)");
  }

  // Miss: reload the least-recently-used unit.
  std::size_t victim = 0;
  for (std::size_t i = 1; i < units_.size(); ++i) {
    if (units_[i].last_use < units_[victim].last_use) victim = i;
  }
  Unit& unit = units_[victim];
  const ConfId evicted = unit.conf;
  if (unit.conf != kInvalidConf) where_[unit.conf] = kNotLoaded;
  ++stats_.reconfigurations;
  unit.conf = conf;
  // Back-to-back reconfigurations of the same unit serialize.
  const std::uint64_t start = std::max(now, unit.ready_at);
  unit.ready_at = start + static_cast<std::uint64_t>(config_.reconfig_latency);
  unit.last_use = tick_;
  where_[conf] = static_cast<std::int32_t>(victim);
  if (listener_ != nullptr) {
    listener_->on_pfu_reconfig(static_cast<int>(victim), conf, evicted, start,
                               unit.ready_at);
  }
  return unit.ready_at;
}

}  // namespace t1000
