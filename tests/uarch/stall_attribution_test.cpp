// Stall-cause attribution: the observability layer's accounting proof.
//
// Every non-committing cycle must be charged to exactly one StallCause —
// the invariant is cause_cycles() == stall_cycles() with no residue — and
// turning observation on must never perturb the simulation itself: the
// SimStats of an observed run are byte-identical to an unobserved one.
// The scenarios reuse the microarchitectural corners from
// timing_golden_test.cpp so each dominant cause is known by construction.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "asmkit/assembler.hpp"
#include "harness/serialize.hpp"
#include "uarch/timing.hpp"

namespace t1000 {
namespace {

struct Scenario {
  std::string name;
  Program program;
  ExtInstTable table;  // empty = no EXT semantics needed
  MachineConfig machine;

  const ExtInstTable* table_ptr() const {
    return table.size() > 0 ? &table : nullptr;
  }
};

Scenario store_to_load() {
  Scenario s;
  s.name = "store_to_load";
  s.program = assemble(R"(
        la $t0, buf
        li $s0, 50
  loop: sw $s0, 0($t0)
        lw $t1, 0($t0)
        addu $v0, $v0, $t1
        addiu $s0, $s0, -1
        bgtz $s0, loop
        halt
        .data
  buf:  .space 16
  )");
  return s;
}

Scenario ruu_full() {
  Scenario s;
  s.name = "ruu_full";
  s.program = assemble(R"(
        la $t0, buf
        li $s0, 256
  loop: lw $t1, 0($t0)
        addu $v0, $v0, $t1
        addiu $t2, $zero, 1
        addiu $t3, $zero, 2
        addiu $t4, $zero, 3
        addiu $t0, $t0, 64
        addiu $s0, $s0, -1
        bgtz $s0, loop
        halt
        .data
  buf:  .space 16384
  )");
  s.machine.ruu_size = 4;
  return s;
}

Scenario ext_blocked() {
  Scenario s;
  s.name = "ext_blocked";
  s.table.intern(ExtInstDef(2, {{.op = Opcode::kSll, .dst = 2, .a = 0, .imm = 1},
                                {.op = Opcode::kAddu, .dst = 3, .a = 2, .b = 1}}));
  s.table.intern(ExtInstDef(2, {{.op = Opcode::kSll, .dst = 2, .a = 0, .imm = 2},
                                {.op = Opcode::kAddu, .dst = 3, .a = 2, .b = 1}}));
  s.program = assemble(R"(
        li $t0, 3
        li $t1, 5
        li $s0, 100
  loop: ext $t2, $t0, $t1, 0
        ext $t3, $t0, $t1, 1
        addu $v0, $t2, $t3
        addiu $s0, $s0, -1
        bgtz $s0, loop
        halt
  )");
  s.machine.pfu = {.count = 1, .reconfig_latency = 10};
  return s;
}

Scenario mispredicting_branches() {
  Scenario s;
  s.name = "mispredict";
  // A data-dependent alternating branch defeats the bimodal predictor.
  s.program = assemble(R"(
        li $s0, 400
  loop: andi $t0, $s0, 1
        bgtz $t0, odd
        addiu $v0, $v0, 1
        j next
  odd:  addiu $v0, $v0, 2
  next: addiu $s0, $s0, -1
        bgtz $s0, loop
        halt
  )");
  s.machine.branch.kind = BranchPredictorKind::kBimodal;
  return s;
}

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  out.push_back(store_to_load());
  out.push_back(ruu_full());
  out.push_back(ext_blocked());
  out.push_back(mispredicting_branches());
  return out;
}

TEST(StallAttribution, EveryNonCommittingCycleChargedExactlyOnce) {
  for (const Scenario& s : scenarios()) {
    SimObservation obs;
    const SimStats st =
        simulate({.program = &s.program, .ext_table = s.table_ptr(), .machine = s.machine, .observation = &obs});
    EXPECT_EQ(obs.stalls.cycles, st.cycles) << s.name;
    // The invariant: commit cycles plus per-cause charges account for
    // every simulated cycle, with no double counting and no residue.
    EXPECT_EQ(obs.stalls.cause_cycles(), obs.stalls.stall_cycles()) << s.name;
    EXPECT_LE(obs.stalls.commit_cycles, obs.stalls.cycles) << s.name;
  }
}

TEST(StallAttribution, ObservationNeverPerturbsSimStats) {
  for (const Scenario& s : scenarios()) {
    const SimStats plain = simulate({.program = &s.program, .ext_table = s.table_ptr(), .machine = s.machine});
    SimObservation obs;
    const SimStats observed =
        simulate({.program = &s.program, .ext_table = s.table_ptr(), .machine = s.machine, .observation = &obs});
    EXPECT_EQ(to_json(plain).dump(), to_json(observed).dump()) << s.name;
    // Full event tracing must be equally invisible to the statistics.
    SimObservation traced;
    traced.want_trace = true;
    const SimStats with_trace =
        simulate({.program = &s.program, .ext_table = s.table_ptr(), .machine = s.machine, .observation = &traced});
    EXPECT_EQ(to_json(plain).dump(), to_json(with_trace).dump()) << s.name;
    EXPECT_FALSE(traced.trace.empty()) << s.name;
  }
}

TEST(StallAttribution, ExtBlockedChargesReconfigurationWait) {
  const Scenario s = ext_blocked();
  SimObservation obs;
  obs.want_trace = true;
  const SimStats st =
      simulate({.program = &s.program, .ext_table = s.table_ptr(), .machine = s.machine, .observation = &obs});
  // Every EXT in the steady state waits behind a 10-cycle configuration
  // load of the single PFU: ext_reconfig must dominate the stalls.
  EXPECT_GT(obs.stalls.of(StallCause::kExtReconfig), 0u);
  EXPECT_GT(obs.stalls.of(StallCause::kExtReconfig),
            obs.stalls.stall_cycles() / 2);
  // The traced reconfigure slices agree with the aggregate PFU statistics:
  // one per reconfiguration, each as long as a load, all on the one PFU.
  const std::vector<obs::TraceEvent>& events = obs.trace.events();
  std::uint64_t reconfigs = 0;
  for (auto b = events.begin(); b != events.end(); ++b) {
    if (b->ph != 'B' || b->name != "reconfigure") continue;
    ++reconfigs;
    EXPECT_EQ(b->tid, 0);  // single-PFU machine
    const auto e = std::find_if(b + 1, events.end(), [&](const auto& ev) {
      return ev.pid == b->pid && ev.tid == b->tid;
    });
    ASSERT_NE(e, events.end());
    EXPECT_EQ(e->ph, 'E');
    EXPECT_EQ(e->ts - b->ts,
              static_cast<std::uint64_t>(s.machine.pfu.reconfig_latency));
  }
  EXPECT_EQ(reconfigs, st.pfu.reconfigurations);
}

TEST(StallAttribution, MispredictedBranchesChargeFetch) {
  const Scenario s = mispredicting_branches();
  SimObservation obs;
  const SimStats st =
      simulate({.program = &s.program, .ext_table = s.table_ptr(), .machine = s.machine, .observation = &obs});
  ASSERT_GT(st.branch.cond_mispredicts, 0u);
  // Redirect bubbles after each mispredicted branch land on fetch_branch.
  EXPECT_GT(obs.stalls.of(StallCause::kFetchBranch), 0u);
}

TEST(StallAttribution, TinyRuuChargesWindowBackpressure) {
  const Scenario s = ruu_full();
  SimObservation obs;
  simulate({.program = &s.program, .ext_table = s.table_ptr(), .machine = s.machine, .observation = &obs});
  // A 4-entry RUU behind a cache-missing load: the window is full behind
  // the in-flight head for almost every stalled cycle.
  EXPECT_GT(obs.stalls.of(StallCause::kRuuFull), 0u);
  EXPECT_GT(obs.stalls.of(StallCause::kRuuFull),
            obs.stalls.stall_cycles() / 2);
}

TEST(StallAttribution, StoreToLoadChargesExecutionSideCauses) {
  const Scenario s = store_to_load();
  SimObservation obs;
  simulate({.program = &s.program, .ext_table = s.table_ptr(), .machine = s.machine, .observation = &obs});
  // The serialized sw->lw->addu chain keeps the head in flight (memory
  // long-misses on the cold lines, plain execution otherwise), and the
  // short program's trailing halt drains through an empty front end.
  EXPECT_GT(obs.stalls.of(StallCause::kExecMem), 0u);
  EXPECT_GT(obs.stalls.of(StallCause::kFetchMem), 0u);
  EXPECT_GT(obs.stalls.of(StallCause::kDrain), 0u);
}

TEST(StallAttribution, CauseNamesAreUniqueAndRoundTrip) {
  std::set<std::string> names;
  for (int c = 0; c < kNumStallCauses; ++c) {
    const std::string name{stall_cause_name(static_cast<StallCause>(c))};
    EXPECT_FALSE(name.empty());
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
  // serialize.cpp's JSON round-trip preserves every cause slot.
  StallBreakdown sb;
  sb.cycles = 1000;
  sb.commit_cycles = 400;
  for (int c = 0; c < kNumStallCauses; ++c) {
    sb.causes[c] = static_cast<std::uint64_t>(c + 1) * 7;
  }
  const StallBreakdown back = stall_breakdown_from_json(to_json(sb));
  EXPECT_EQ(to_json(back).dump(), to_json(sb).dump());
}

}  // namespace
}  // namespace t1000
