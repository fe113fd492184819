// Property test: the production cache and TLB must agree hit-for-hit with
// naive reference implementations of LRU over random address streams and
// several geometries.
#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <vector>

#include "uarch/cache.hpp"

namespace t1000 {
namespace {

// Straightforward reference: per-set list ordered most-recent-first.
class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheConfig& config) : config_(config) {
    sets_.resize(config.num_sets());
  }

  bool access(std::uint32_t addr) {
    const std::uint32_t line = addr / config_.line_bytes;
    const std::uint32_t set = line % config_.num_sets();
    const std::uint32_t tag = line / config_.num_sets();
    std::list<std::uint32_t>& lru = sets_[set];
    for (auto it = lru.begin(); it != lru.end(); ++it) {
      if (*it == tag) {
        lru.erase(it);
        lru.push_front(tag);
        return true;
      }
    }
    lru.push_front(tag);
    if (lru.size() > config_.assoc) lru.pop_back();
    return false;
  }

 private:
  CacheConfig config_;
  std::vector<std::list<std::uint32_t>> sets_;
};

struct Geometry {
  std::uint32_t size;
  std::uint32_t line;
  std::uint32_t assoc;
};

class CacheAgreement : public ::testing::TestWithParam<int> {};

TEST_P(CacheAgreement, MatchesReferenceOnRandomStreams) {
  const Geometry geoms[] = {
      {256, 16, 1}, {256, 16, 2}, {512, 32, 4}, {1024, 64, 2}, {128, 16, 8},
  };
  std::uint32_t state = static_cast<std::uint32_t>(GetParam()) * 2654435761u + 99;
  auto rng = [&state] {
    state ^= state << 13;
    state ^= state >> 17;
    state ^= state << 5;
    return state;
  };
  for (const Geometry& g : geoms) {
    const CacheConfig cfg{.size_bytes = g.size, .line_bytes = g.line,
                          .assoc = g.assoc, .hit_latency = 1};
    Cache cache(cfg);
    ReferenceCache ref(cfg);
    for (int i = 0; i < 4000; ++i) {
      // Mix of tight and scattered addresses to exercise conflicts.
      const std::uint32_t addr =
          (rng() % 8 == 0) ? rng() % (1u << 16) : rng() % (4 * g.size);
      ASSERT_EQ(cache.access(addr), ref.access(addr))
          << "geometry " << g.size << "/" << g.line << "/" << g.assoc
          << " access " << i << " addr " << addr;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheAgreement, ::testing::Range(1, 9));

// Reference TLB: one fully-associative list ordered most-recent-first.
class ReferenceTlb {
 public:
  explicit ReferenceTlb(const TlbConfig& config) : config_(config) {}

  int access(std::uint32_t addr) {
    ++stats_.accesses;
    const std::uint32_t page = addr / config_.page_bytes;
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      if (*it == page) {
        lru_.erase(it);
        lru_.push_front(page);
        return 0;
      }
    }
    ++stats_.misses;
    lru_.push_front(page);
    if (lru_.size() > config_.entries) lru_.pop_back();
    return config_.miss_latency;
  }

  const CacheStats& stats() const { return stats_; }

 private:
  TlbConfig config_;
  std::list<std::uint32_t> lru_;
  CacheStats stats_;
};

class TlbAgreement : public ::testing::TestWithParam<int> {};

TEST_P(TlbAgreement, MatchesReferenceOnRandomStreams) {
  std::uint32_t state = static_cast<std::uint32_t>(GetParam()) * 2246822519u + 7;
  auto rng = [&state] {
    state ^= state << 13;
    state ^= state >> 17;
    state ^= state << 5;
    return state;
  };
  // 3000-byte pages take the division path.
  for (const std::uint32_t page_bytes : {4096u, 3000u}) {
    for (const std::uint32_t entries : {1u, 3u, 64u}) {
      const TlbConfig cfg{.entries = entries, .page_bytes = page_bytes,
                          .miss_latency = 30};
      Tlb tlb(cfg);
      ReferenceTlb ref(cfg);
      for (int i = 0; i < 6000; ++i) {
        // Hot pages, pages 256 apart (they share a hint slot), and a spread
        // of more pages than any geometry has entries.
        std::uint32_t page;
        switch (rng() % 3) {
          case 0: page = rng() % 4; break;
          case 1: page = 256 * (rng() % 6) + 5; break;
          default: page = rng() % 200; break;
        }
        const std::uint32_t addr = page * page_bytes + rng() % page_bytes;
        ASSERT_EQ(tlb.access(addr), ref.access(addr))
            << "entries " << entries << " page " << page_bytes << " access "
            << i << " addr " << addr;
      }
      EXPECT_EQ(tlb.stats().accesses, ref.stats().accesses);
      EXPECT_EQ(tlb.stats().misses, ref.stats().misses)
          << "entries " << entries << " page " << page_bytes;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TlbAgreement, ::testing::Range(1, 9));

}  // namespace
}  // namespace t1000
