#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace t1000::obs {
namespace {

// Json integers are signed 64-bit; a saturated (pegged) tally is above
// INT64_MAX, so render such values as decimal strings instead of throwing.
Json json_u64(std::uint64_t v) {
  if (v > static_cast<std::uint64_t>(INT64_MAX)) return Json(std::to_string(v));
  return Json(v);
}

[[noreturn]] void registration_conflict(std::string_view name,
                                        const char* detail) {
  std::fprintf(stderr,
               "obs::MetricsRegistry: conflicting registration of metric "
               "'%.*s' (%s)\n",
               static_cast<int>(name.size()), name.data(), detail);
  std::abort();
}

}  // namespace

void saturating_add(std::atomic<std::uint64_t>& cell, std::uint64_t n) {
  if (n == 0) return;
  std::uint64_t cur = cell.load(std::memory_order_relaxed);
  for (;;) {
    if (cur == ~0ull) return;  // already pegged
    const std::uint64_t next = cur > ~0ull - n ? ~0ull : cur + n;
    if (cell.compare_exchange_weak(cur, next, std::memory_order_relaxed)) {
      return;
    }
  }
}

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<std::uint64_t>[bounds_.size() + 1]) {
  for (std::size_t i = 0; i + 1 < bounds_.size(); ++i) {
    if (bounds_[i] >= bounds_[i + 1]) {
      registration_conflict("<histogram>", "bucket bounds must be ascending");
    }
  }
  for (std::size_t i = 0; i < bounds_.size() + 1; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::observe(std::uint64_t value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::size_t bucket =
      static_cast<std::size_t>(it - bounds_.begin());  // overflow = last
  saturating_add(buckets_[bucket], 1);
  saturating_add(count_, 1);
  saturating_add(sum_, value);
}

Counter* MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = instruments_.find(name);
  if (it == instruments_.end()) {
    it = instruments_.emplace(std::string(name), Instrument{}).first;
    it->second.counter = std::make_unique<Counter>();
  } else if (!it->second.counter) {
    registration_conflict(name, "already registered as a different kind");
  }
  return it->second.counter.get();
}

Histogram* MetricsRegistry::histogram(std::string_view name,
                                      std::vector<std::uint64_t> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = instruments_.find(name);
  if (it == instruments_.end()) {
    it = instruments_.emplace(std::string(name), Instrument{}).first;
    it->second.histogram = std::make_unique<Histogram>(std::move(bounds));
  } else if (!it->second.histogram) {
    registration_conflict(name, "already registered as a different kind");
  } else if (it->second.histogram->bounds() != bounds) {
    registration_conflict(name, "already registered with different buckets");
  }
  return it->second.histogram.get();
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return instruments_.size();
}

Json MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  Json doc = Json::object();
  for (const auto& [name, inst] : instruments_) {  // std::map: sorted
    Json j = Json::object();
    if (inst.counter) {
      j["type"] = Json("counter");
      j["value"] = json_u64(inst.counter->value());
    } else {
      const Histogram& h = *inst.histogram;
      j["type"] = Json("histogram");
      Json bounds = Json::array();
      for (const std::uint64_t b : h.bounds()) bounds.push_back(json_u64(b));
      Json buckets = Json::array();
      for (std::size_t i = 0; i < h.num_buckets(); ++i) {
        buckets.push_back(json_u64(h.bucket_count(i)));
      }
      j["bounds"] = std::move(bounds);
      j["buckets"] = std::move(buckets);
      j["count"] = json_u64(h.count());
      j["sum"] = json_u64(h.sum());
    }
    doc[name] = std::move(j);
  }
  return doc;
}

}  // namespace t1000::obs
