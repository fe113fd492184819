// The harness metrics registry: named counters and fixed-bucket histograms.
// Intervals are not a metric kind: obs::Journal records when a job or a
// simulation started and ended, as spans, and histograms bucket durations.
//
// Instruments hang off a MetricsRegistry by name. Registration is
// get-or-create: asking twice for the same (name, kind, shape) returns the
// same instrument — which is what lets a long-lived registry observe many
// grid runs — while asking for an existing name with a *different* kind or
// bucket shape aborts the process (two subsystems silently sharing one
// metric is a bug worth dying for; pinned by a death test).
//
// Thread-safety: registration takes the registry mutex; the hot update
// paths (Counter::add, Histogram::observe) are lock-free atomics, so the
// grid's worker pool can hammer shared instruments without serializing.
// Counters and histogram tallies *saturate* at UINT64_MAX instead of
// wrapping — a pegged counter is obviously wrong, a wrapped one silently
// lies.
//
// to_json() renders instruments sorted by name with fixed member order, so
// two registries that observed the same deterministic quantities dump
// byte-identical JSON (wall-clock histograms are nondeterministic in value,
// deterministic in shape).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "harness/json.hpp"

namespace t1000::obs {

// Saturating add on an atomic counter cell; shared by every instrument.
void saturating_add(std::atomic<std::uint64_t>& cell, std::uint64_t n);

class Counter {
 public:
  void add(std::uint64_t n = 1) { saturating_add(value_, n); }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Fixed-bucket histogram: `bounds` are ascending inclusive upper bounds;
// an implicit overflow bucket catches everything above the last bound.
class Histogram {
 public:
  explicit Histogram(std::vector<std::uint64_t> bounds);

  void observe(std::uint64_t value);

  std::size_t num_buckets() const { return bounds_.size() + 1; }
  const std::vector<std::uint64_t>& bounds() const { return bounds_; }
  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<std::uint64_t> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Get-or-create by name. Re-requesting an existing name with a
  // different instrument kind — or, for histograms, different bucket
  // bounds — prints the conflict to stderr and aborts.
  Counter* counter(std::string_view name);
  Histogram* histogram(std::string_view name,
                       std::vector<std::uint64_t> bounds);

  std::size_t size() const;

  // Deterministic dump: one member per instrument, sorted by name.
  //   counter:   {"type":"counter","value":N}
  //   histogram: {"type":"histogram","bounds":[...],"buckets":[...],
  //               "count":N,"sum":N}
  Json to_json() const;

 private:
  struct Instrument {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;
  std::map<std::string, Instrument, std::less<>> instruments_;
};

}  // namespace t1000::obs
