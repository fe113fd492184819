#include "uarch/cache.hpp"

#include <cassert>

namespace t1000 {

namespace {

// log2 of v when v is a power of two, -1 otherwise.
int pow2_shift(std::uint32_t v) {
  if (v == 0 || (v & (v - 1)) != 0) return -1;
  int s = 0;
  while ((v >> s) != 1) ++s;
  return s;
}

}  // namespace

Cache::Cache(const CacheConfig& config) : config_(config) {
  assert(config_.num_sets() > 0 && "cache geometry must divide evenly");
  sets_ = config_.num_sets();
  ways_.resize(static_cast<std::size_t>(sets_) * config_.assoc);
  line_shift_ = pow2_shift(config_.line_bytes);
  set_shift_ = pow2_shift(sets_);
  if (set_shift_ < 0) line_shift_ = -1;  // both must be pow2 for the fast path
  set_mask_ = sets_ - 1;
}

void Cache::fill(Way* set, std::uint32_t tag, bool is_write) {
  ++stats_.misses;
  Way* victim = set;
  for (std::uint32_t w = 0; w < config_.assoc; ++w) {
    if (!set[w].valid) {
      victim = &set[w];
      break;
    }
    if (set[w].last_use < victim->last_use) victim = &set[w];
  }
  if (victim->valid && victim->dirty) ++stats_.writebacks;
  victim->valid = true;
  victim->tag = tag;
  victim->last_use = tick_;
  victim->dirty = is_write;
}

Tlb::Tlb(const TlbConfig& config) : config_(config) {
  entries_.resize(config_.entries);
  page_shift_ = pow2_shift(config_.page_bytes);
}

int Tlb::scan(std::uint32_t page, std::uint32_t& hint) {
  Entry* victim = &entries_[0];
  for (Entry& e : entries_) {
    if (e.valid && e.page == page) {
      e.last_use = tick_;
      hint = static_cast<std::uint32_t>(&e - entries_.data());
      return 0;
    }
    if (!e.valid || (victim->valid && e.last_use < victim->last_use)) {
      victim = &e;
    }
  }
  ++stats_.misses;
  victim->valid = true;
  victim->page = page;
  victim->last_use = tick_;
  hint = static_cast<std::uint32_t>(victim - entries_.data());
  return config_.miss_latency;
}

MemHierarchy::MemHierarchy(const CacheConfig& l1, Cache* shared_l2,
                           int mem_latency, const TlbConfig& tlb)
    : l1_(l1), l2_(shared_l2), tlb_(tlb), mem_latency_(mem_latency) {
  assert(l2_ != nullptr);
}

int MemHierarchy::l1_miss_latency(std::uint32_t addr) {
  // Write-back/write-allocate: the L2 fill is a read even for store misses;
  // dirtiness propagates to L2 only when L1 evicts (write buffer, free).
  const int latency = l2_->config().hit_latency;
  if (l2_->access(addr)) return latency;
  return latency + mem_latency_;
}

}  // namespace t1000
