#include "uarch/pfu.hpp"

#include <gtest/gtest.h>

#include <string>

#include "sim/executor.hpp"

namespace t1000 {
namespace {

TEST(PfuBank, FirstUseReconfigures) {
  PfuBank bank({.count = 2, .reconfig_latency = 10});
  EXPECT_EQ(bank.request(0, 100), 110u);
  EXPECT_EQ(bank.stats().reconfigurations, 1u);
  EXPECT_EQ(bank.stats().hits, 0u);
}

TEST(PfuBank, RequestOnZeroPfusThrows) {
  PfuBank bank({.count = 0, .reconfig_latency = 10});
  try {
    bank.request(0, 100);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("pfu.count"), std::string::npos)
        << e.what();
  }
}

TEST(PfuBank, HitAfterLoad) {
  PfuBank bank({.count = 2, .reconfig_latency = 10});
  bank.request(0, 0);
  EXPECT_EQ(bank.request(0, 50), 50u);  // configured: issue immediately
  EXPECT_EQ(bank.stats().hits, 1u);
  EXPECT_EQ(bank.stats().reconfigurations, 1u);
}

TEST(PfuBank, HitDuringLoadWaits) {
  PfuBank bank({.count = 1, .reconfig_latency = 10});
  EXPECT_EQ(bank.request(0, 0), 10u);
  // Another instruction with the same Conf arrives while loading: it waits
  // for the same load, no second reconfiguration.
  EXPECT_EQ(bank.request(0, 3), 10u);
  EXPECT_EQ(bank.stats().reconfigurations, 1u);
}

TEST(PfuBank, LruReplacement) {
  PfuBank bank({.count = 2, .reconfig_latency = 10});
  bank.request(0, 0);   // unit A
  bank.request(1, 0);   // unit B
  bank.request(0, 20);  // touch conf 0
  bank.request(2, 30);  // evicts conf 1 (LRU)
  EXPECT_EQ(bank.request(0, 50), 50u);   // still resident
  EXPECT_EQ(bank.request(1, 50), 60u);   // was evicted, reconfigures
  EXPECT_EQ(bank.stats().reconfigurations, 4u);
}

TEST(PfuBank, ThrashingAlternation) {
  // One PFU, two configurations used alternately: every request
  // reconfigures (the Section 4 pathology).
  PfuBank bank({.count = 1, .reconfig_latency = 10});
  std::uint64_t now = 0;
  for (int i = 0; i < 10; ++i) {
    now = bank.request(static_cast<ConfId>(i % 2), now);
  }
  EXPECT_EQ(bank.stats().reconfigurations, 10u);
  EXPECT_EQ(bank.stats().hits, 0u);
  EXPECT_EQ(now, 100u);  // serialized reloads
}

TEST(PfuBank, BackToBackReloadsSerialize) {
  PfuBank bank({.count = 1, .reconfig_latency = 10});
  EXPECT_EQ(bank.request(0, 0), 10u);
  // A different conf requested at cycle 2: the unit is still loading conf 0
  // until 10, then loads conf 1 until 20.
  EXPECT_EQ(bank.request(1, 2), 20u);
}

TEST(PfuBank, UnlimitedGrowsPerConf) {
  PfuBank bank({.count = PfuConfig::kUnlimited, .reconfig_latency = 0});
  EXPECT_EQ(bank.request(0, 5), 5u);
  EXPECT_EQ(bank.request(1, 5), 5u);
  EXPECT_EQ(bank.request(2, 5), 5u);
  EXPECT_EQ(bank.size(), 3);
  EXPECT_EQ(bank.request(0, 9), 9u);
  EXPECT_EQ(bank.size(), 3);
  EXPECT_EQ(bank.stats().hits, 1u);
}

TEST(PfuBank, UnlimitedWithLatencyPaysOncePerConf) {
  PfuBank bank({.count = PfuConfig::kUnlimited, .reconfig_latency = 10});
  EXPECT_EQ(bank.request(0, 0), 10u);
  EXPECT_EQ(bank.request(0, 20), 20u);
  EXPECT_EQ(bank.stats().reconfigurations, 1u);
}

TEST(PfuBank, ZeroLatencyReconfigIsFree) {
  PfuBank bank({.count = 2, .reconfig_latency = 0});
  EXPECT_EQ(bank.request(0, 7), 7u);
  EXPECT_EQ(bank.request(1, 7), 7u);
  EXPECT_EQ(bank.request(2, 8), 8u);
}

}  // namespace
}  // namespace t1000
