// Differential/property test for the PFU bank against a naive reference.
//
// PfuBank (uarch/pfu.cpp) keeps a conf -> unit hash map and an LRU clock;
// this file re-implements the Section 2.2 semantics in the most obvious
// way possible — a flat array scanned linearly — and drives both models
// with the same randomized request streams. Every return value (the
// issue-ready cycle) and every statistics counter must match exactly, for
// bank sizes from 1 to unlimited and reconfiguration latencies from free
// to punitive.
#include "uarch/pfu.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

namespace t1000 {
namespace {

// The reference model: no hash map, no tie-break subtleties — just the
// paper's words. A hit refreshes the LRU clock and waits for any
// in-flight load of that unit; a miss reloads the least-recently-used
// unit, serializing behind that unit's previous reconfiguration.
class ReferencePfuBank {
 public:
  explicit ReferencePfuBank(const PfuConfig& config) : config_(config) {
    if (config_.count != PfuConfig::kUnlimited) {
      units_.resize(static_cast<std::size_t>(config_.count));
    }
  }

  std::uint64_t request(ConfId conf, std::uint64_t now) {
    ++stats_.lookups;
    ++tick_;
    for (Unit& u : units_) {
      if (u.conf == conf) {
        u.last_use = tick_;
        ++stats_.hits;
        return std::max(now, u.ready_at);
      }
    }
    ++stats_.reconfigurations;
    const auto latency = static_cast<std::uint64_t>(config_.reconfig_latency);
    if (config_.count == PfuConfig::kUnlimited) {
      units_.push_back({conf, now + latency, tick_});
      return units_.back().ready_at;
    }
    Unit* victim = &units_[0];
    for (Unit& u : units_) {
      if (u.last_use < victim->last_use) victim = &u;
    }
    victim->conf = conf;
    victim->ready_at = std::max(now, victim->ready_at) + latency;
    victim->last_use = tick_;
    return victim->ready_at;
  }

  const PfuStats& stats() const { return stats_; }

 private:
  struct Unit {
    ConfId conf = kInvalidConf;
    std::uint64_t ready_at = 0;
    std::uint64_t last_use = 0;
  };
  PfuConfig config_;
  std::vector<Unit> units_;
  std::uint64_t tick_ = 0;
  PfuStats stats_;
};

void expect_stats_equal(const PfuStats& got, const PfuStats& want,
                        const std::string& context) {
  EXPECT_EQ(got.lookups, want.lookups) << context;
  EXPECT_EQ(got.hits, want.hits) << context;
  EXPECT_EQ(got.reconfigurations, want.reconfigurations) << context;
}

// One fuzz episode: `requests` random (conf, now) pairs with a
// non-decreasing clock, checked request by request.
void run_episode(const PfuConfig& config, std::uint32_t seed, int requests,
                 int conf_space) {
  PfuBank bank(config);
  ReferencePfuBank ref(config);
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> conf_dist(0, conf_space - 1);
  std::uniform_int_distribution<int> advance(0, 12);

  std::uint64_t now = 0;
  for (int i = 0; i < requests; ++i) {
    now += static_cast<std::uint64_t>(advance(rng));
    const auto conf = static_cast<ConfId>(conf_dist(rng));
    const std::uint64_t got = bank.request(conf, now);
    const std::uint64_t want = ref.request(conf, now);
    ASSERT_EQ(got, want) << "request " << i << ": conf " << conf << " at cycle "
                         << now << " (count " << config.count << ", latency "
                         << config.reconfig_latency << ", seed " << seed << ")";
    // A unit is never ready before the request that (re)loads it.
    ASSERT_GE(got, now);
  }
  char context[96];
  std::snprintf(context, sizeof context, "count %d latency %d seed %u",
                config.count, config.reconfig_latency, seed);
  expect_stats_equal(bank.stats(), ref.stats(), context);
  EXPECT_EQ(bank.stats().lookups,
            bank.stats().hits + bank.stats().reconfigurations);
}

TEST(PfuProperty, MatchesReferenceAcrossSizesAndLatencies) {
  const int counts[] = {1, 2, 4, 8, PfuConfig::kUnlimited};
  const int latencies[] = {0, 1, 10, 100};
  std::uint32_t seed = 0xC0FFEE;
  for (const int count : counts) {
    for (const int latency : latencies) {
      PfuConfig config;
      config.count = count;
      config.reconfig_latency = latency;
      // Conf spaces below, at, and above the bank capacity: all-hit
      // steady states, exact fits, and LRU thrashing.
      for (const int conf_space : {1, 2, 3, 5, 9, 17}) {
        run_episode(config, seed++, 2000, conf_space);
      }
    }
  }
}

// Every reconfiguration a bank reports, in order.
class ReconfigLog final : public PfuListener {
 public:
  struct Event {
    int unit;
    ConfId conf;
    ConfId evicted;
    std::uint64_t start;
    std::uint64_t ready;
    bool operator==(const Event&) const = default;
  };
  void on_pfu_reconfig(int unit, ConfId conf, ConfId evicted,
                       std::uint64_t start, std::uint64_t ready) override {
    events.push_back({unit, conf, evicted, start, ready});
  }
  std::vector<Event> events;
};

TEST(PfuProperty, BankHoldingEveryConfAnswersAsUnlimited) {
  // Property: a bank with at least as many units as distinct confs never
  // evicts, so it answers every request as the unlimited bank does, fills
  // the same units in the same order, and ends with equal PfuStats. This
  // is the rule effective_machine() (uarch/timing.hpp) relies on.
  std::uint32_t seed = 0x5EED;
  for (const int latency : {0, 1, 10, 500}) {
    for (const int confs : {1, 2, 3, 4, 6}) {
      for (const int count : {confs, confs + 1, 8}) {
        PfuConfig config;
        config.count = count;
        config.reconfig_latency = latency;
        PfuConfig unlimited_config = config;
        unlimited_config.count = PfuConfig::kUnlimited;
        PfuBank bank(config);
        PfuBank unlimited(unlimited_config);
        ReconfigLog bank_log;
        ReconfigLog unlimited_log;
        bank.set_listener(&bank_log);
        unlimited.set_listener(&unlimited_log);
        std::mt19937 rng(seed++);
        std::uniform_int_distribution<int> conf_dist(0, confs - 1);
        std::uniform_int_distribution<int> advance(0, 12);
        std::uint64_t now = 0;
        for (int i = 0; i < 2000; ++i) {
          now += static_cast<std::uint64_t>(advance(rng));
          const auto conf = static_cast<ConfId>(conf_dist(rng));
          ASSERT_EQ(bank.request(conf, now), unlimited.request(conf, now))
              << "request " << i << ": conf " << conf << " at cycle " << now
              << " (count " << count << ", latency " << latency << ")";
        }
        char context[64];
        std::snprintf(context, sizeof context, "count %d latency %d confs %d",
                      count, latency, confs);
        expect_stats_equal(bank.stats(), unlimited.stats(), context);
        EXPECT_TRUE(bank_log.events == unlimited_log.events) << context;
      }
    }
  }
}

TEST(PfuProperty, HotConfNeverReconfiguresTwice) {
  // Property: a single configuration requested forever reconfigures at
  // most once, regardless of bank size.
  for (const int count : {1, 4, PfuConfig::kUnlimited}) {
    PfuConfig config;
    config.count = count;
    config.reconfig_latency = 10;
    PfuBank bank(config);
    for (std::uint64_t cycle = 0; cycle < 500; cycle += 3) {
      bank.request(7, cycle);
    }
    EXPECT_EQ(bank.stats().reconfigurations, 1u);
    EXPECT_EQ(bank.stats().hits, bank.stats().lookups - 1);
  }
}

TEST(PfuProperty, RotationBeyondCapacityAlwaysThrashes) {
  // Property: round-robin over count+1 configurations defeats LRU — every
  // request after the warm-up reconfigures.
  for (const int count : {1, 2, 4}) {
    PfuConfig config;
    config.count = count;
    config.reconfig_latency = 10;
    PfuBank bank(config);
    ReferencePfuBank ref(config);
    const int confs = count + 1;
    std::uint64_t now = 0;
    for (int i = 0; i < 200; ++i) {
      now += 20;  // past the reconfiguration latency: pure LRU behaviour
      const auto conf = static_cast<ConfId>(i % confs);
      ASSERT_EQ(bank.request(conf, now), ref.request(conf, now));
    }
    EXPECT_EQ(bank.stats().hits, 0u);
    EXPECT_EQ(bank.stats().reconfigurations, bank.stats().lookups);
  }
}

TEST(PfuProperty, BackToBackReconfigurationsSerialize) {
  // Two different configurations forced through a single PFU in the same
  // cycle: the second reload queues behind the first.
  PfuConfig config;
  config.count = 1;
  config.reconfig_latency = 10;
  PfuBank bank(config);
  ReferencePfuBank ref(config);
  EXPECT_EQ(bank.request(0, 5), 15u);
  EXPECT_EQ(bank.request(1, 5), 25u);
  EXPECT_EQ(ref.request(0, 5), 15u);
  EXPECT_EQ(ref.request(1, 5), 25u);
  // A hit on an in-flight configuration waits for the load, not the clock.
  EXPECT_EQ(bank.request(1, 6), 25u);
  EXPECT_EQ(ref.request(1, 6), 25u);
}

}  // namespace
}  // namespace t1000
