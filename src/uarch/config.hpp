// Machine configuration for the T1000 timing model. Defaults follow the
// paper's Section 3 (a 4-issue out-of-order superscalar with RUU scheduling,
// realistic L1/L2 caches and TLBs, perfect branch prediction) with
// SimpleScalar-era cache parameters.
#pragma once

#include <cstdint>
#include <string>

#include "uarch/branch.hpp"

namespace t1000 {

struct CacheConfig {
  std::uint32_t size_bytes = 0;
  std::uint32_t line_bytes = 32;
  std::uint32_t assoc = 1;
  int hit_latency = 1;

  std::uint32_t num_sets() const {
    return size_bytes / (line_bytes * assoc);
  }
};

struct TlbConfig {
  std::uint32_t entries = 64;
  std::uint32_t page_bytes = 4096;
  int miss_latency = 30;
};

struct PfuConfig {
  // Number of programmable functional units; kUnlimited gives every
  // configuration its own unit.
  static constexpr int kUnlimited = -1;
  int count = 0;  // 0 = plain superscalar, no PFUs
  int reconfig_latency = 10;
  // The paper assumes every extended instruction evaluates in one cycle and
  // chooses sequences for which that holds; it notes the model "could
  // easily be altered to allow for varying execution times". Enabling this
  // derives each configuration's latency from its mapped logic depth
  // (one cycle per `levels_per_cycle` LUT levels).
  bool multi_cycle_ext = false;
  int levels_per_cycle = 3;
};

struct MachineConfig {
  int fetch_width = 4;
  int decode_width = 4;
  int issue_width = 4;
  int commit_width = 4;
  int ruu_size = 64;
  int fetch_queue_size = 16;

  int int_alus = 4;
  int int_mults = 1;
  int mem_ports = 2;
  // Outstanding long-latency memory accesses allowed in flight (MSHRs);
  // 0 = unlimited (the paper-era SimpleScalar default behaviour).
  int max_outstanding_misses = 0;

  CacheConfig il1{.size_bytes = 16 * 1024, .line_bytes = 32, .assoc = 1,
                  .hit_latency = 1};
  CacheConfig dl1{.size_bytes = 16 * 1024, .line_bytes = 32, .assoc = 4,
                  .hit_latency = 1};
  CacheConfig l2{.size_bytes = 256 * 1024, .line_bytes = 64, .assoc = 4,
                 .hit_latency = 6};
  int memory_latency = 18;

  TlbConfig itlb;
  TlbConfig dtlb;

  PfuConfig pfu;
  BranchPredictorConfig branch;  // perfect by default, as in the paper
};

// Checks every field of `config` against its range (the table in
// config.cpp): widths, windows and functional-unit counts are at least 1
// and capped so no machine allocates gigabytes; cache lines and predictor
// tables are powers of two; a cache holds a whole number of sets; every
// latency lies in [0, 100000] cycles. Returns an empty string for a
// buildable machine, otherwise a message naming the first bad field by its
// JSON path (e.g. "dl1.line_bytes"), its range and its value.
std::string validate(const MachineConfig& config);

}  // namespace t1000
