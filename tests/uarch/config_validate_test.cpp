// The machine-config range table (uarch/config.hpp, validate): every
// field rejects the values that used to crash, hang or exhaust memory and
// accepts the edges of its range, and the timing entry points refuse a
// bad machine by name instead of simulating it.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "asmkit/assembler.hpp"
#include "harness/experiment.hpp"
#include "sim/trace.hpp"
#include "uarch/config.hpp"
#include "uarch/timing.hpp"

namespace t1000 {
namespace {

struct FieldCase {
  std::string field;
  std::function<void(MachineConfig&, std::int64_t)> set;
  std::vector<std::int64_t> bad;
  std::vector<std::int64_t> good;
};

template <typename T>
std::function<void(MachineConfig&, std::int64_t)> setter(
    T MachineConfig::*member) {
  return [member](MachineConfig& m, std::int64_t v) {
    m.*member = static_cast<T>(v);
  };
}

template <typename Sub, typename T>
std::function<void(MachineConfig&, std::int64_t)> setter(
    Sub MachineConfig::*sub, T Sub::*member) {
  return [sub, member](MachineConfig& m, std::int64_t v) {
    (m.*sub).*member = static_cast<T>(v);
  };
}

const std::vector<FieldCase>& field_cases() {
  constexpr std::int64_t kWidth = 1 << 10;
  constexpr std::int64_t kWindow = 1 << 20;
  constexpr std::int64_t kLatency = 100000;
  static const std::vector<FieldCase> cases = {
      {"fetch_width", setter(&MachineConfig::fetch_width), {0, -1, kWidth + 1},
       {1, 4, kWidth}},
      {"decode_width", setter(&MachineConfig::decode_width), {0, kWidth + 1},
       {1, kWidth}},
      {"issue_width", setter(&MachineConfig::issue_width), {0, kWidth + 1},
       {1, kWidth}},
      {"commit_width", setter(&MachineConfig::commit_width), {0, kWidth + 1},
       {1, kWidth}},
      {"ruu_size", setter(&MachineConfig::ruu_size),
       {0, -64, kWindow + 1, 2000000000}, {1, 64, kWindow}},
      {"fetch_queue_size", setter(&MachineConfig::fetch_queue_size),
       {0, kWindow + 1}, {1, 16, kWindow}},
      {"int_alus", setter(&MachineConfig::int_alus), {0, kWidth + 1},
       {1, kWidth}},
      {"int_mults", setter(&MachineConfig::int_mults), {0, kWidth + 1},
       {1, kWidth}},
      {"mem_ports", setter(&MachineConfig::mem_ports), {0, kWidth + 1},
       {1, kWidth}},
      {"max_outstanding_misses",
       setter(&MachineConfig::max_outstanding_misses), {-1, kWindow + 1},
       {0, 4, kWindow}},
      // dl1 defaults to 16 KiB, 4-way: 32 B lines make 512 lines.
      {"dl1.line_bytes", setter(&MachineConfig::dl1, &CacheConfig::line_bytes),
       {0, 24, 1 << 17}, {1, 32, 64}},
      {"dl1.assoc", setter(&MachineConfig::dl1, &CacheConfig::assoc), {0},
       {1, 8, 512}},
      {"dl1.size_bytes", setter(&MachineConfig::dl1, &CacheConfig::size_bytes),
       {0, 100, 16 * 1024 + 64, 128LL * kWindow},
       {128, 16 * 1024, 32LL * kWindow}},
      {"dl1.hit_latency",
       setter(&MachineConfig::dl1, &CacheConfig::hit_latency),
       {-1, kLatency + 1}, {0, kLatency}},
      {"il1.line_bytes", setter(&MachineConfig::il1, &CacheConfig::line_bytes),
       {0}, {16}},
      {"l2.size_bytes", setter(&MachineConfig::l2, &CacheConfig::size_bytes),
       {0}, {1 << 20}},
      {"memory_latency", setter(&MachineConfig::memory_latency),
       {-1, kLatency + 1}, {0, 18, kLatency}},
      {"itlb.entries", setter(&MachineConfig::itlb, &TlbConfig::entries),
       {0, (1 << 16) + 1}, {1, 64, 1 << 16}},
      {"dtlb.page_bytes", setter(&MachineConfig::dtlb, &TlbConfig::page_bytes),
       {0}, {1, 4096}},
      {"dtlb.miss_latency",
       setter(&MachineConfig::dtlb, &TlbConfig::miss_latency),
       {-1, kLatency + 1}, {0, 30}},
      {"pfu.count", setter(&MachineConfig::pfu, &PfuConfig::count),
       {-2, (1 << kConfBits) + 1},
       {PfuConfig::kUnlimited, 0, 2, 1 << kConfBits}},
      // serve_mix draws reconfiguration latencies from 11 to 510 cycles.
      {"pfu.reconfig_latency",
       setter(&MachineConfig::pfu, &PfuConfig::reconfig_latency),
       {-1, kLatency + 1}, {0, 11, 510, kLatency}},
      {"pfu.levels_per_cycle",
       setter(&MachineConfig::pfu, &PfuConfig::levels_per_cycle),
       {0, -3}, {1, 3}},
      {"branch.bimodal_entries",
       setter(&MachineConfig::branch, &BranchPredictorConfig::bimodal_entries),
       {0, 3000, (1 << 20) + (1 << 19)}, {1, 2048, 1 << 20}},
      {"branch.target_entries",
       setter(&MachineConfig::branch, &BranchPredictorConfig::target_entries),
       {0, 100}, {1, 256}},
      {"branch.mispredict_penalty",
       setter(&MachineConfig::branch,
              &BranchPredictorConfig::mispredict_penalty),
       {-1, kLatency + 1}, {0, 3, kLatency}},
  };
  return cases;
}

TEST(MachineValidate, DefaultAndPaperMachinesAreValid) {
  EXPECT_EQ(validate(MachineConfig{}), "");
  EXPECT_EQ(validate(baseline_machine()), "");
  EXPECT_EQ(validate(pfu_machine(2, 10)), "");
  EXPECT_EQ(validate(pfu_machine(PfuConfig::kUnlimited, 500)), "");
}

TEST(MachineValidate, EveryFieldRejectsOutOfRangeAndAcceptsItsEdges) {
  for (const FieldCase& c : field_cases()) {
    for (const std::int64_t v : c.bad) {
      MachineConfig m;
      c.set(m, v);
      const std::string why = validate(m);
      EXPECT_EQ(why.rfind(c.field + " must be", 0), 0u)
          << c.field << " = " << v << ": " << why;
      EXPECT_NE(why.find("(got " + std::to_string(v) + ")"), std::string::npos)
          << why;
    }
    for (const std::int64_t v : c.good) {
      MachineConfig m;
      c.set(m, v);
      EXPECT_EQ(validate(m), "") << c.field << " = " << v;
    }
  }
}

Program tiny_program() {
  return assemble(R"(
        li $s0, 20
  loop: addiu $v0, $v0, 3
        addiu $s0, $s0, -1
        bgtz $s0, loop
        halt
  )");
}

TEST(MachineValidate, SimulateRefusesABadMachineByName) {
  const Program p = tiny_program();
  MachineConfig bad;
  bad.dl1.line_bytes = 0;
  try {
    simulate({.program = &p, .machine = bad});
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("dl1.line_bytes"), std::string::npos)
        << e.what();
  }
  const CommittedTrace trace = record_trace(p, nullptr, 1000);
  bad = MachineConfig{};
  bad.fetch_width = 0;
  EXPECT_THROW(simulate({.program = &p, .trace = &trace, .machine = bad}),
               SimError);
}

TEST(MachineValidate, ABadBatchLaneFailsAlone) {
  const Program p = tiny_program();
  const CommittedTrace trace = record_trace(p, nullptr, 1000);
  MachineConfig bad;
  bad.ruu_size = 0;
  BatchSimRequest request;
  request.program = &p;
  request.trace = &trace;
  request.lanes = {{.machine = MachineConfig{}}, {.machine = bad},
                   {.machine = MachineConfig{}}};
  const std::vector<BatchLaneResult> lanes = simulate_replay_batch(request);
  ASSERT_EQ(lanes.size(), 3u);
  EXPECT_FALSE(lanes[0].error);
  EXPECT_FALSE(lanes[2].error);
  ASSERT_TRUE(lanes[1].error);
  try {
    std::rethrow_exception(lanes[1].error);
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("ruu_size"), std::string::npos)
        << e.what();
  }
  const SimStats want =
      simulate({.program = &p, .trace = &trace, .machine = MachineConfig{}});
  EXPECT_EQ(lanes[0].stats.cycles, want.cycles);
  EXPECT_EQ(lanes[2].stats.committed, want.committed);
}

}  // namespace
}  // namespace t1000
