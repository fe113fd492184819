// Set-associative LRU cache and TLB models, plus the two-level hierarchy
// used by the fetch and memory stages.
#pragma once

#include <cstdint>
#include <vector>

#include "uarch/config.hpp"

namespace t1000 {

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  std::uint64_t writebacks = 0;  // dirty lines evicted

  double miss_rate() const {
    return accesses == 0 ? 0.0
                         : static_cast<double>(misses) / static_cast<double>(accesses);
  }
};

// One level of set-associative cache with true-LRU replacement.
class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  // Looks up `addr`; fills the line on a miss (write-allocate) and marks it
  // dirty on writes. Returns hit/miss; evicting a dirty line counts a
  // writeback (drained through a write buffer, so it adds no latency).
  bool access(std::uint32_t addr, bool is_write = false) {
    ++stats_.accesses;
    ++tick_;
    std::uint32_t set;
    std::uint32_t tag;
    if (line_shift_ >= 0) {
      const std::uint32_t line = addr >> line_shift_;
      set = line & set_mask_;
      tag = line >> set_shift_;
    } else {
      const std::uint32_t line = addr / config_.line_bytes;
      set = line % sets_;
      tag = line / sets_;
    }
    Way* base = &ways_[static_cast<std::size_t>(set) * config_.assoc];
    for (std::uint32_t w = 0; w < config_.assoc; ++w) {
      Way& way = base[w];
      if (way.valid && way.tag == tag) {
        way.last_use = tick_;
        way.dirty = way.dirty || is_write;
        return true;
      }
    }
    fill(base, tag, is_write);
    return false;
  }

  const CacheConfig& config() const { return config_; }
  const CacheStats& stats() const { return stats_; }

 private:
  struct Way {
    std::uint32_t tag = 0;
    std::uint64_t last_use = 0;
    bool valid = false;
    bool dirty = false;
  };

  // Miss in the set starting at `set`: replaces its LRU (or an invalid) way.
  void fill(Way* set, std::uint32_t tag, bool is_write);

  CacheConfig config_;
  std::vector<Way> ways_;  // sets * assoc, row-major by set
  std::uint32_t sets_ = 1;
  // Power-of-two geometry (the common case) resolves line/set/tag with
  // shifts and masks instead of three integer divisions per access;
  // line_shift_ < 0 falls back to the division path.
  int line_shift_ = -1;
  int set_shift_ = 0;
  std::uint32_t set_mask_ = 0;
  std::uint64_t tick_ = 0;
  CacheStats stats_;
};

// Fully-associative LRU TLB.
class Tlb {
 public:
  explicit Tlb(const TlbConfig& config);

  // Returns the translation penalty in cycles (0 on a hit).
  int access(std::uint32_t addr) {
    ++stats_.accesses;
    ++tick_;
    const std::uint32_t page = page_shift_ >= 0 ? addr >> page_shift_
                                                : addr / config_.page_bytes;
    std::uint32_t& hint = hints_[page % kHints];
    Entry& e = entries_[hint];
    if (e.valid && e.page == page) {
      e.last_use = tick_;
      return 0;
    }
    return scan(page, hint);
  }

  const CacheStats& stats() const { return stats_; }

 private:
  struct Entry {
    std::uint32_t page = 0;
    std::uint64_t last_use = 0;
    bool valid = false;
  };

  // Full lookup of `page`, filling the LRU (or an invalid) entry on a miss;
  // points `hint` at the entry that now holds the page.
  int scan(std::uint32_t page, std::uint32_t& hint);

  // Direct-mapped page -> entry hints. A page sits in at most one entry,
  // and a hit only touches that entry's last_use, so a hint that names a
  // valid entry holding the page is exactly what the scan would find; a
  // stale hint (its entry since refilled) just falls through to the scan.
  static constexpr std::uint32_t kHints = 256;

  TlbConfig config_;
  std::vector<Entry> entries_;
  int page_shift_ = -1;  // power-of-two page size fast path
  std::uint64_t tick_ = 0;
  CacheStats stats_;
  std::uint32_t hints_[kHints] = {};
};

// One L1 (+TLB) in front of a *shared* unified L2 (the paper simulates
// split L1s with a unified second level). The L2 and memory latency are
// owned by the caller so the I- and D-sides share them.
class MemHierarchy {
 public:
  MemHierarchy(const CacheConfig& l1, Cache* shared_l2, int mem_latency,
               const TlbConfig& tlb);

  // Full latency of an access to `addr`, including TLB, L1, L2 and memory
  // contributions as applicable.
  int access(std::uint32_t addr, bool is_write = false) {
    const int latency = tlb_.access(addr) + l1_.config().hit_latency;
    if (l1_.access(addr, is_write)) return latency;
    return latency + l1_miss_latency(addr);
  }

  const Cache& l1() const { return l1_; }
  const Tlb& tlb() const { return tlb_; }

 private:
  // What an L1 miss adds: the L2 hit time, plus memory on an L2 miss.
  int l1_miss_latency(std::uint32_t addr);

  Cache l1_;
  Cache* l2_;  // shared, not owned
  Tlb tlb_;
  int mem_latency_;
};

}  // namespace t1000
