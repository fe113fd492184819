#include "uarch/config.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <vector>

namespace t1000 {

namespace {

constexpr std::int64_t kMaxWidth = 1 << 10;       // per-cycle widths, FUs
constexpr std::int64_t kMaxWindow = 1 << 20;      // RUU, fetch queue, MSHRs
constexpr std::int64_t kMaxLineBytes = 1 << 16;
constexpr std::int64_t kMaxLines = 1 << 20;       // per cache
constexpr std::int64_t kMaxTlbEntries = 1 << 16;  // scanned on every miss
constexpr std::int64_t kMaxTableEntries = 1 << 20; // predictor tables
constexpr std::int64_t kMaxLatency = 100000;      // cycles

// One row per field. Names stay literals until a row fails, so validating
// a good machine (every parsed request does) builds no strings.
struct Range {
  const char* group;  // the sub-config's JSON member, or "" at top level
  const char* field;
  std::int64_t value;
  std::int64_t lo;
  std::int64_t hi;
  bool pow2 = false;       // must also be a power of two
  std::int64_t unit = 1;   // must also be a multiple of this
};

void add_cache(std::vector<Range>* t, const char* name,
               const CacheConfig& c) {
  t->push_back({name, "line_bytes", c.line_bytes, 1, kMaxLineBytes, true});
  t->push_back({name, "assoc", c.assoc, 1, kMaxLines});
  // A whole number of sets, at most kMaxLines lines. The clamps only keep
  // the bounds finite: an out-of-range line or assoc fails first.
  const std::int64_t line = std::min<std::int64_t>(c.line_bytes,
                                                   kMaxLineBytes);
  const std::int64_t set_bytes =
      line * std::min<std::int64_t>(c.assoc, kMaxLines);
  t->push_back({name, "size_bytes", c.size_bytes, set_bytes,
                line * kMaxLines, false, set_bytes});
  t->push_back({name, "hit_latency", c.hit_latency, 0, kMaxLatency});
}

void add_tlb(std::vector<Range>* t, const char* name, const TlbConfig& c) {
  t->push_back({name, "entries", c.entries, 1, kMaxTlbEntries});
  t->push_back({name, "page_bytes", c.page_bytes, 1,
                std::numeric_limits<std::uint32_t>::max()});
  t->push_back({name, "miss_latency", c.miss_latency, 0, kMaxLatency});
}

bool holds(const Range& r) {
  if (r.value < r.lo || r.value > r.hi) return false;
  if (r.pow2 && !std::has_single_bit(static_cast<std::uint64_t>(r.value))) {
    return false;
  }
  return r.value % r.unit == 0;
}

std::string describe(const Range& r) {
  std::string what = *r.group ? std::string(r.group) + "." : std::string();
  what += r.field;
  what += " must be ";
  if (r.pow2) what += "a power of two ";
  if (r.unit > 1) what += "a multiple of " + std::to_string(r.unit) + " ";
  return what + "in [" + std::to_string(r.lo) + ", " + std::to_string(r.hi) +
         "] (got " + std::to_string(r.value) + ")";
}

}  // namespace

std::string validate(const MachineConfig& config) {
  std::vector<Range> table;
  table.reserve(40);  // the 35 rows below
  table.insert(
      table.end(),
      {{"", "fetch_width", config.fetch_width, 1, kMaxWidth},
       {"", "decode_width", config.decode_width, 1, kMaxWidth},
       {"", "issue_width", config.issue_width, 1, kMaxWidth},
       {"", "commit_width", config.commit_width, 1, kMaxWidth},
       {"", "ruu_size", config.ruu_size, 1, kMaxWindow},
       {"", "fetch_queue_size", config.fetch_queue_size, 1, kMaxWindow},
       {"", "int_alus", config.int_alus, 1, kMaxWidth},
       {"", "int_mults", config.int_mults, 1, kMaxWidth},
       {"", "mem_ports", config.mem_ports, 1, kMaxWidth},
       // 0 = unlimited.
       {"", "max_outstanding_misses", config.max_outstanding_misses, 0,
        kMaxWindow}});
  add_cache(&table, "il1", config.il1);
  add_cache(&table, "dl1", config.dl1);
  add_cache(&table, "l2", config.l2);
  table.push_back(
      {"", "memory_latency", config.memory_latency, 0, kMaxLatency});
  add_tlb(&table, "itlb", config.itlb);
  add_tlb(&table, "dtlb", config.dtlb);
  table.insert(
      table.end(),
      {{"pfu", "count", config.pfu.count, PfuConfig::kUnlimited, kMaxPfus},
       {"pfu", "reconfig_latency", config.pfu.reconfig_latency, 0,
        kMaxLatency},
       {"pfu", "levels_per_cycle", config.pfu.levels_per_cycle, 1, kMaxWidth},
       {"branch", "bimodal_entries", config.branch.bimodal_entries, 1,
        kMaxTableEntries, true},
       {"branch", "target_entries", config.branch.target_entries, 1,
        kMaxTableEntries, true},
       {"branch", "mispredict_penalty", config.branch.mispredict_penalty, 0,
        kMaxLatency}});
  for (const Range& r : table) {
    if (!holds(r)) return describe(r);
  }
  return {};
}

}  // namespace t1000
