// Prometheus text-exposition tests: name sanitization and label escaping,
// the `family|key=value` split, cumulative-bucket monotonicity against the
// registry's per-bucket tallies, digit-for-digit value parity with the
// JSON dump above INT64_MAX, appended gauges, a structural lint over a
// whole document (counter/histogram/gauge are its only TYPE kinds), and a
// concurrent hammer on the per-route histograms while the renderer runs
// (the TSan job executes this binary).
#include "obs/prometheus.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace t1000::obs {
namespace {

constexpr std::uint64_t kMax = ~0ull;

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    lines.push_back(text.substr(start, end - start));
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return lines;
}

TEST(Prometheus, SanitizeNameMapsInvalidBytesToUnderscore) {
  EXPECT_EQ(prometheus_sanitize_name("exp.phase_ms"), "exp_phase_ms");
  EXPECT_EQ(prometheus_sanitize_name("grid.runs"), "grid_runs");
  EXPECT_EQ(prometheus_sanitize_name("a:b_c9"), "a:b_c9");
  // A leading digit is invalid even though digits are fine later.
  EXPECT_EQ(prometheus_sanitize_name("9lives"), "_lives");
  EXPECT_EQ(prometheus_sanitize_name(""), "_");
  EXPECT_EQ(prometheus_sanitize_name("sp ace/slash"), "sp_ace_slash");
}

TEST(Prometheus, LabelValueEscaping) {
  EXPECT_EQ(prometheus_escape_label_value("plain"), "plain");
  EXPECT_EQ(prometheus_escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(prometheus_escape_label_value("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(prometheus_escape_label_value("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(prometheus_escape_label_value("GET /v1/jobs/<id>"),
            "GET /v1/jobs/<id>");
}

TEST(Prometheus, SplitNameParsesFamilyAndLabels) {
  std::string family;
  std::string labels;
  prometheus_split_name("grid.runs", &family, &labels);
  EXPECT_EQ(family, "grid_runs");
  EXPECT_EQ(labels, "");

  prometheus_split_name("serve.route_ms|route=GET /v1/jobs/<id>", &family,
                        &labels);
  EXPECT_EQ(family, "serve_route_ms");
  EXPECT_EQ(labels, "{route=\"GET /v1/jobs/<id>\"}");

  prometheus_split_name("exp.phase_ms|phase=decode|shard=3", &family,
                        &labels);
  EXPECT_EQ(family, "exp_phase_ms");
  EXPECT_EQ(labels, "{phase=\"decode\",shard=\"3\"}");

  // A segment without '=' is a key with an empty value, and the value is
  // escaped, not sanitized.
  prometheus_split_name("f|flag|path=a\\b", &family, &labels);
  EXPECT_EQ(family, "f");
  EXPECT_EQ(labels, "{flag=\"\",path=\"a\\\\b\"}");
}

TEST(Prometheus, CounterRendersWithTotalSuffixAndTypeLine) {
  MetricsRegistry registry;
  registry.counter("serve.jobs_completed")->add(3);
  const std::string text = render_prometheus(registry);
  EXPECT_NE(text.find("# TYPE serve_jobs_completed_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_jobs_completed_total 3\n"), std::string::npos);
}

TEST(Prometheus, HistogramBucketsAreCumulativeAndMonotone) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("lat|route=GET /x", {10, 20, 50});
  for (const std::uint64_t v : {1u, 10u, 11u, 20u, 21u, 49u, 1000u}) {
    h->observe(v);
  }
  const std::string text = render_prometheus(registry);
  // The registry stores per-bucket tallies {2,2,2}(+1 overflow); the
  // exposition must accumulate them.
  EXPECT_NE(text.find("# TYPE lat histogram\n"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{route=\"GET /x\",le=\"10\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_bucket{route=\"GET /x\",le=\"20\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_bucket{route=\"GET /x\",le=\"50\"} 6\n"),
            std::string::npos);
  // le="+Inf" is the observation count by definition.
  EXPECT_NE(text.find("lat_bucket{route=\"GET /x\",le=\"+Inf\"} 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_sum{route=\"GET /x\"} 1112\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_count{route=\"GET /x\"} 7\n"), std::string::npos);

  // Structural re-check: successive _bucket samples never decrease.
  std::uint64_t prev = 0;
  for (const std::string& line : lines_of(text)) {
    if (line.rfind("lat_bucket", 0) != 0) continue;
    const std::uint64_t value =
        std::stoull(line.substr(line.rfind(' ') + 1));
    EXPECT_GE(value, prev) << line;
    prev = value;
  }
}

TEST(Prometheus, HugeCounterMatchesJsonDigitForDigit) {
  MetricsRegistry registry;
  // Above INT64_MAX the JSON dump switches to a decimal string; the
  // exposition must reuse those exact digits.
  registry.counter("huge")->add(kMax - 1);
  const Json doc = registry.to_json();
  const Json& value = doc.at("huge").at("value");
  ASSERT_TRUE(value.is_string());
  EXPECT_EQ(value.as_string(), "18446744073709551614");
  const std::string text = render_prometheus(registry);
  EXPECT_NE(text.find("huge_total " + value.as_string() + "\n"),
            std::string::npos);
}

TEST(Prometheus, HugeHistogramTalliesSaturateCumulatively) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("big", {1, 2});
  // Pegging two buckets near the ceiling must not wrap the cumulative
  // series — it saturates, keeping the rendered samples monotone.
  for (int i = 0; i < 3; ++i) h->observe(1);
  for (int i = 0; i < 3; ++i) h->observe(2);
  const std::string text = render_prometheus(registry);
  EXPECT_NE(text.find("big_bucket{le=\"1\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("big_bucket{le=\"2\"} 6\n"), std::string::npos);
  EXPECT_NE(text.find("big_bucket{le=\"+Inf\"} 6\n"), std::string::npos);
}

TEST(Prometheus, GaugesAppendAfterRegistryInstruments) {
  MetricsRegistry registry;
  registry.counter("a")->add(1);
  const std::string text = render_prometheus(
      registry, {{"serve.cache_disk_usage_bytes", 4096.0},
                 {"serve.cache|counter=misses", 2.0}});
  EXPECT_NE(text.find("# TYPE serve_cache_disk_usage_bytes gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_cache_disk_usage_bytes 4096\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_cache{counter=\"misses\"} 2\n"),
            std::string::npos);
  // Gauges come last: the counter samples precede them.
  EXPECT_LT(text.find("a_total 1\n"), text.find("serve_cache_disk_usage"));
}

// A minimal lint over the whole document: every line is either a # TYPE
// comment or `name[{labels}] value`, names start in the Prometheus
// grammar, and every sample's family was introduced by a TYPE line.
TEST(Prometheus, DocumentIsStructurallyValid) {
  MetricsRegistry registry;
  registry.counter("grid.runs")->add(7);
  registry.histogram("exp.phase_ms|phase=decode", {1, 10})->observe(3);
  registry.histogram("exp.phase_ms|phase=replay", {1, 10})->observe(12);
  const std::string text =
      render_prometheus(registry, {{"serve.journal_events", 5.0}});
  ASSERT_FALSE(text.empty());
  ASSERT_EQ(text.back(), '\n');
  std::vector<std::string> typed;
  for (const std::string& line : lines_of(text)) {
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string rest = line.substr(7);
      const std::size_t space = rest.find(' ');
      ASSERT_NE(space, std::string::npos) << line;
      typed.push_back(rest.substr(0, space));
      const std::string type = rest.substr(space + 1);
      EXPECT_TRUE(type == "counter" || type == "histogram" ||
                  type == "gauge")
          << line;
      continue;
    }
    // Sample line: `name[{...}] value` with a parseable number.
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string name = line.substr(0, space);
    EXPECT_TRUE(std::isalpha(static_cast<unsigned char>(name[0])) ||
                name[0] == '_' || name[0] == ':')
        << line;
    EXPECT_NO_THROW(std::stod(line.substr(space + 1))) << line;
    // The sample's family must match one of the TYPE lines seen so far.
    bool matched = false;
    for (const std::string& family : typed) {
      if (name.rfind(family, 0) == 0) matched = true;
    }
    EXPECT_TRUE(matched) << "untyped sample: " << line;
  }
}

// The serve layer's per-route histograms are created and hammered from
// the HTTP handler pool while /metrics renders concurrently; this is the
// same access pattern under the race detector.
TEST(Prometheus, ConcurrentRouteHistogramHammer) {
  MetricsRegistry registry;
  const std::vector<std::string> routes = {
      "serve.route_ms|route=GET /v1/jobs",
      "serve.route_ms|route=GET /v1/jobs/<id>",
      "serve.route_ms|route=POST /v1/jobs",
      "serve.route_ms|route=GET /metrics",
  };
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(routes.size() + 1);
  for (const std::string& route : routes) {
    threads.emplace_back([&registry, route] {
      for (int i = 0; i < kPerThread; ++i) {
        registry.histogram(route, {1, 5, 10, 100})
            ->observe(static_cast<std::uint64_t>(i % 128));
      }
    });
  }
  threads.emplace_back([&registry] {
    // What holds at every instant: before any route thread has registered
    // its histogram the render is empty, and no count ever passes the
    // observations one thread makes.
    for (int i = 0; i < 50; ++i) {
      std::istringstream text(render_prometheus(registry));
      for (std::string line; std::getline(text, line);) {
        const std::size_t name_end = line.find_first_of("{ ");
        if (name_end == std::string::npos ||
            !line.substr(0, name_end).ends_with("_count")) {
          continue;
        }
        EXPECT_LE(std::stoll(line.substr(line.rfind(' ') + 1)),
                  static_cast<long long>(kPerThread))
            << line;
      }
    }
  });
  for (std::thread& t : threads) t.join();

  const std::string text = render_prometheus(registry);
  for (const std::string& route : routes) {
    std::string family;
    std::string labels;
    prometheus_split_name(route, &family, &labels);
    const std::string want =
        family + "_count" + labels + " " + std::to_string(kPerThread) + "\n";
    EXPECT_NE(text.find(want), std::string::npos) << want;
  }
}

}  // namespace
}  // namespace t1000::obs
