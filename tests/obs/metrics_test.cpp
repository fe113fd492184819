// MetricsRegistry unit tests: saturating arithmetic, get-or-create
// registration (and the abort on conflicting re-registration), histogram
// bucketing, and the deterministic JSON dump — including the decimal-string
// rendering of tallies too large for a signed JSON integer.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace t1000::obs {
namespace {

constexpr std::uint64_t kMax = ~0ull;

TEST(Metrics, CounterSaturatesInsteadOfWrapping) {
  Counter c;
  c.add(kMax - 5);
  EXPECT_EQ(c.value(), kMax - 5);
  c.add(3);
  EXPECT_EQ(c.value(), kMax - 2);
  // The increment that would wrap pegs at the ceiling instead...
  c.add(10);
  EXPECT_EQ(c.value(), kMax);
  // ...and a pegged counter stays pegged.
  c.add(kMax);
  EXPECT_EQ(c.value(), kMax);
}

TEST(Metrics, SaturatingAddHandlesExtremes) {
  std::atomic<std::uint64_t> cell{0};
  saturating_add(cell, 0);
  EXPECT_EQ(cell.load(), 0u);
  saturating_add(cell, kMax);
  EXPECT_EQ(cell.load(), kMax);
  saturating_add(cell, 1);
  EXPECT_EQ(cell.load(), kMax);
}

TEST(Metrics, HistogramBucketsAreInclusiveUpperBounds) {
  Histogram h({10, 20});
  ASSERT_EQ(h.num_buckets(), 3u);  // two bounded + overflow
  h.observe(0);
  h.observe(10);  // inclusive: lands in the <=10 bucket
  h.observe(11);
  h.observe(20);
  h.observe(21);  // above the last bound: overflow bucket
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 62u);
}

TEST(Metrics, HistogramSumSaturates) {
  Histogram h({100});
  h.observe(kMax);
  h.observe(kMax);
  EXPECT_EQ(h.sum(), kMax);
  EXPECT_EQ(h.count(), 2u);
}

TEST(Metrics, RegistrationIsGetOrCreate) {
  MetricsRegistry reg;
  Counter* a = reg.counter("grid.runs");
  Counter* b = reg.counter("grid.runs");
  EXPECT_EQ(a, b);
  Histogram* h1 = reg.histogram("grid.wall_ms", {1, 10, 100});
  Histogram* h2 = reg.histogram("grid.wall_ms", {1, 10, 100});
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(reg.size(), 2u);
  // Shared instrument: updates through either handle land in one place.
  a->add(2);
  b->add(3);
  EXPECT_EQ(a->value(), 5u);
}

using MetricsDeathTest = ::testing::Test;

TEST(MetricsDeathTest, ReRegisteringNameAsDifferentKindAborts) {
  // Two subsystems silently sharing one name across kinds is a bug worth
  // dying for (see metrics.hpp).
  EXPECT_DEATH(
      {
        MetricsRegistry reg;
        reg.counter("grid.runs");
        reg.histogram("grid.runs", {1});
      },
      "conflicting registration of metric 'grid.runs'");
  EXPECT_DEATH(
      {
        MetricsRegistry reg;
        reg.histogram("grid.wall_ms", {1, 2});
        reg.counter("grid.wall_ms");
      },
      "different kind");
}

TEST(MetricsDeathTest, ReRegisteringHistogramWithDifferentBucketsAborts) {
  EXPECT_DEATH(
      {
        MetricsRegistry reg;
        reg.histogram("grid.wall_ms", {1, 2, 3});
        reg.histogram("grid.wall_ms", {1, 2});
      },
      "different buckets");
}

TEST(MetricsDeathTest, NonAscendingHistogramBoundsAbort) {
  EXPECT_DEATH(
      {
        MetricsRegistry reg;
        reg.histogram("bad", {10, 10, 20});
      },
      "ascending");
}

TEST(Metrics, ToJsonIsDeterministicAndSorted) {
  const auto populate = [](MetricsRegistry& reg) {
    reg.counter("b.counter")->add(7);
    reg.histogram("a.hist", {5, 50})->observe(3);
    reg.histogram("a.hist", {5, 50})->observe(60);
    reg.counter("c.counter")->add(123);
  };
  MetricsRegistry one;
  MetricsRegistry two;
  populate(one);
  populate(two);
  // Same observations => byte-identical dumps, members sorted by name.
  EXPECT_EQ(one.to_json().dump(2), two.to_json().dump(2));
  const std::string text = one.to_json().dump();
  EXPECT_LT(text.find("a.hist"), text.find("b.counter"));
  EXPECT_LT(text.find("b.counter"), text.find("c.counter"));
  const Json j = one.to_json();
  EXPECT_EQ(j.at("b.counter").at("type").as_string(), "counter");
  EXPECT_EQ(j.at("b.counter").at("value").as_uint(), 7u);
  EXPECT_EQ(j.at("a.hist").at("count").as_uint(), 2u);
  EXPECT_EQ(j.at("a.hist").at("sum").as_uint(), 63u);
  EXPECT_EQ(j.at("a.hist").at("buckets").at(0).as_uint(), 1u);
  EXPECT_EQ(j.at("a.hist").at("buckets").at(2).as_uint(), 1u);
  EXPECT_EQ(j.at("c.counter").at("value").as_uint(), 123u);
}

TEST(Metrics, SaturatedValuesRenderAsDecimalStrings) {
  // Json integers are signed 64-bit; a pegged tally must still dump
  // losslessly (as a decimal string) instead of throwing.
  MetricsRegistry reg;
  reg.counter("pegged")->add(kMax);
  const Json j = reg.to_json();
  EXPECT_EQ(j.at("pegged").at("value").as_string(), "18446744073709551615");
  EXPECT_NE(j.dump().find("\"18446744073709551615\""), std::string::npos);
}

TEST(Metrics, ConcurrentUpdatesAreExact) {
  // Hot paths are lock-free atomics: hammering one instrument from many
  // threads must lose no updates (and must be clean under TSan, where this
  // test also runs in CI).
  MetricsRegistry reg;
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      Counter* c = reg.counter("hammer.counter");
      Histogram* h = reg.histogram("hammer.hist", {8, 64, 512});
      for (int i = 0; i < kIters; ++i) {
        c->add(1);
        h->observe(static_cast<std::uint64_t>(i % 1000));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kThreads) * kIters;
  EXPECT_EQ(reg.counter("hammer.counter")->value(), kTotal);
  Histogram* h = reg.histogram("hammer.hist", {8, 64, 512});
  EXPECT_EQ(h->count(), kTotal);
  std::uint64_t buckets = 0;
  for (std::size_t i = 0; i < h->num_buckets(); ++i) {
    buckets += h->bucket_count(i);
  }
  EXPECT_EQ(buckets, kTotal);
}

}  // namespace
}  // namespace t1000::obs
