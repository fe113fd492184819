#include "uarch/timing.hpp"

#include <gtest/gtest.h>

#include <string>

#include "asmkit/assembler.hpp"
#include "extinst/rewrite.hpp"
#include "extinst/select.hpp"
#include "sim/trace.hpp"
#include "workloads/workload.hpp"

namespace t1000 {
namespace {

MachineConfig base_machine() {
  MachineConfig cfg;
  return cfg;
}

TEST(Timing, CommitsEveryInstructionExactlyOnce) {
  const Program p = assemble(R"(
        li $t0, 0
        li $t1, 100
  loop: addiu $t0, $t0, 1
        bne $t0, $t1, loop
        halt
  )");
  const SimStats st = simulate({.program = &p, .machine = base_machine()});
  EXPECT_EQ(st.committed, 2u + 100 * 2 + 1);
  EXPECT_GT(st.cycles, 0u);
}

TEST(Timing, IndependentOpsReachSuperscalarIpc) {
  // Long stretches of independent single-cycle ops: IPC should approach the
  // 4-wide limit once caches warm up.
  std::string src;
  for (int i = 0; i < 200; ++i) {
    src += "  addiu $t" + std::to_string(i % 8) + ", $zero, " +
           std::to_string(i % 100) + "\n";
  }
  // Repeat the block via a loop to amortize cold-start.
  std::string full = "  li $s0, 200\nloop:\n" + src +
                     "  addiu $s0, $s0, -1\n  bgtz $s0, loop\n  halt\n";
  const Program p = assemble(full);
  const SimStats st = simulate({.program = &p, .machine = base_machine()});
  EXPECT_GT(st.ipc(), 3.0);
  EXPECT_LE(st.ipc(), 4.0);
}

TEST(Timing, DependentChainLimitsIpc) {
  std::string src = "  li $s0, 200\nloop:\n";
  for (int i = 0; i < 64; ++i) src += "  addiu $t0, $t0, 1\n";
  src += "  addiu $s0, $s0, -1\n  bgtz $s0, loop\n  halt\n";
  const Program p = assemble(src);
  const SimStats st = simulate({.program = &p, .machine = base_machine()});
  // The dependent chain serializes: ~1 IPC.
  EXPECT_LT(st.ipc(), 1.3);
  EXPECT_GT(st.ipc(), 0.8);
}

TEST(Timing, MulLatencyVisible) {
  // A dependent multiply chain that crosses iterations serializes at the
  // 3-cycle multiply latency (t0 stays 1, so the chain never widens).
  std::string src = "  li $s0, 100\n  li $t0, 1\nloop:\n";
  for (int i = 0; i < 16; ++i) src += "  mul $t0, $t0, $t0\n";
  src += "  addiu $s0, $s0, -1\n  bgtz $s0, loop\n  halt\n";
  const Program p = assemble(src);
  const SimStats st = simulate({.program = &p, .machine = base_machine()});
  EXPECT_LT(st.ipc(), 0.5);
  EXPECT_GT(st.ipc(), 0.25);
}

TEST(Timing, CacheMissesCostCycles) {
  // Stride through a buffer far larger than DL1 (16 KiB): many L1 misses.
  const Program p = assemble(R"(
        la $t0, buf
        li $t1, 2048          # 2048 * 32B stride = 64 KiB > DL1
        li $v0, 0
  loop: lw $t2, 0($t0)
        addu $v0, $v0, $t2
        addiu $t0, $t0, 32
        addiu $t1, $t1, -1
        bgtz $t1, loop
        halt
        .data
  buf:  .space 65536
  )");
  const SimStats st = simulate({.program = &p, .machine = base_machine()});
  EXPECT_GT(st.dl1.misses, 1500u);
  // Misses cost latency; independent loads overlap (no MSHR limit is
  // modelled), so IPC dips but does not collapse.
  EXPECT_LT(st.ipc(), 3.0);
}

TEST(Timing, WarmLoopHasFewIcacheMisses) {
  const Program p = assemble(R"(
        li $t1, 1000
  loop: addiu $t1, $t1, -1
        bgtz $t1, loop
        halt
  )");
  const SimStats st = simulate({.program = &p, .machine = base_machine()});
  EXPECT_LE(st.il1.misses, 4u);
}

TEST(Timing, StoreToLoadDependencyRespected) {
  // A load must see the just-stored value's timing (it waits for the
  // store), so a store->load->add chain is slow; the run must terminate
  // with all instructions committed.
  const Program p = assemble(R"(
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
  const SimStats st = simulate({.program = &p, .machine = base_machine()});
  EXPECT_EQ(st.committed, 3u + 50 * 5 + 1);  // la expands to 2 instructions
}

TEST(Timing, ExtNeedsReconfigOnlyOnce) {
  ExtInstTable table;
  table.intern(ExtInstDef(2, {{.op = Opcode::kSll, .dst = 2, .a = 0, .imm = 2},
                              {.op = Opcode::kAddu, .dst = 3, .a = 2, .b = 1}}));
  const Program p = assemble(R"(
        li $t0, 3
        li $t1, 5
        li $s0, 100
  loop: ext $t2, $t0, $t1, 0
        sw $t2, 0($sp)
        addiu $s0, $s0, -1
        bgtz $s0, loop
        halt
  )");
  MachineConfig cfg = base_machine();
  cfg.pfu = {.count = 2, .reconfig_latency = 10};
  const SimStats st = simulate({.program = &p, .ext_table = &table, .machine = cfg});
  EXPECT_EQ(st.pfu.reconfigurations, 1u);
  EXPECT_EQ(st.pfu.lookups, 100u);
  EXPECT_EQ(st.pfu.hits, 99u);
}

TEST(Timing, PfuThrashingIsSlowerThanBaseline) {
  // Three configurations rotating through 2 PFUs inside a hot loop: every
  // iteration reconfigures. The same loop expressed as plain ALU ops is
  // faster - the Section 4 result that motivates the selective algorithm.
  ExtInstTable table;
  for (int v = 0; v < 3; ++v) {
    table.intern(
        ExtInstDef(2, {{.op = Opcode::kSll, .dst = 2, .a = 0,
                        .imm = static_cast<std::int32_t>(v + 1)},
                       {.op = Opcode::kAddu, .dst = 3, .a = 2, .b = 1}}));
  }
  const Program ext_version = assemble(R"(
        li $t0, 3
        li $t1, 5
        li $s0, 500
  loop: ext $t2, $t0, $t1, 0
        ext $t3, $t0, $t1, 1
        ext $t4, $t0, $t1, 2
        addu $v0, $t2, $t3
        addu $v0, $v0, $t4
        sw $v0, 0($sp)
        addiu $s0, $s0, -1
        bgtz $s0, loop
        halt
  )");
  const Program plain_version = assemble(R"(
        li $t0, 3
        li $t1, 5
        li $s0, 500
  loop: sll $t2, $t0, 1
        addu $t2, $t2, $t1
        sll $t3, $t0, 2
        addu $t3, $t3, $t1
        sll $t4, $t0, 3
        addu $t4, $t4, $t1
        addu $v0, $t2, $t3
        addu $v0, $v0, $t4
        sw $v0, 0($sp)
        addiu $s0, $s0, -1
        bgtz $s0, loop
        halt
  )");
  MachineConfig cfg = base_machine();
  cfg.pfu = {.count = 2, .reconfig_latency = 10};
  const SimStats thrash = simulate({.program = &ext_version, .ext_table = &table, .machine = cfg});
  const SimStats plain = simulate({.program = &plain_version, .machine = base_machine()});
  EXPECT_GT(thrash.pfu.reconfigurations, 1000u);  // ~3 per iteration
  EXPECT_GT(thrash.cycles, plain.cycles);
}

TEST(Timing, MorePfusRemoveThrashing) {
  ExtInstTable table;
  for (int v = 0; v < 3; ++v) {
    table.intern(
        ExtInstDef(2, {{.op = Opcode::kSll, .dst = 2, .a = 0,
                        .imm = static_cast<std::int32_t>(v + 1)},
                       {.op = Opcode::kAddu, .dst = 3, .a = 2, .b = 1}}));
  }
  const Program p = assemble(R"(
        li $t0, 3
        li $t1, 5
        li $s0, 500
  loop: ext $t2, $t0, $t1, 0
        ext $t3, $t0, $t1, 1
        ext $t4, $t0, $t1, 2
        addu $v0, $t2, $t3
        addu $v0, $v0, $t4
        sw $v0, 0($sp)
        addiu $s0, $s0, -1
        bgtz $s0, loop
        halt
  )");
  MachineConfig two = base_machine();
  two.pfu = {.count = 2, .reconfig_latency = 10};
  MachineConfig four = base_machine();
  four.pfu = {.count = 4, .reconfig_latency = 10};
  const SimStats st2 = simulate({.program = &p, .ext_table = &table, .machine = two});
  const SimStats st4 = simulate({.program = &p, .ext_table = &table, .machine = four});
  EXPECT_LT(st4.cycles, st2.cycles);
  EXPECT_EQ(st4.pfu.reconfigurations, 3u);  // one load per configuration
}

TEST(Timing, ExtSpeedsUpDependentChains) {
  // End-to-end: select + rewrite a dependent-chain kernel and check the
  // rewritten program needs fewer cycles on a 2-PFU machine.
  const Program p = assemble(R"(
        li $t1, 100
        li $t3, 3
        li $s0, 2000
  loop: sll $t5, $t3, 4
        addu $t6, $t5, $t1
        sll $t7, $t6, 1
        xori $t7, $t7, 0x55
        sw  $t7, 0($sp)
        addiu $s0, $s0, -1
        bgtz $s0, loop
        halt
  )");
  const AnalyzedProgram ap = analyze_program(p, 1u << 22);
  SelectPolicy policy;
  policy.num_pfus = 2;
  Selection sel = select_selective(ap, policy);
  ASSERT_FALSE(sel.apps.empty());
  const RewriteResult rr = rewrite_program(p, sel.apps);

  MachineConfig cfg = base_machine();
  cfg.pfu = {.count = 2, .reconfig_latency = 10};
  const SimStats before = simulate({.program = &p, .machine = base_machine()});
  const SimStats after = simulate({.program = &rr.program, .ext_table = &sel.table, .machine = cfg});
  EXPECT_LT(after.cycles, before.cycles);
}

TEST(Timing, ThrowsOnCycleBound) {
  const Program p = assemble("loop: j loop");
  EXPECT_THROW(simulate({.program = &p, .machine = base_machine(), .max_cycles = 1000}), SimError);
}

TEST(Timing, RecordingBoundSaturatesAtTheLargestCycleBound) {
  // A run given no trace records with a step bound of (max_cycles + 1) x
  // commit_width. At the largest max_cycles that product would wrap to 0
  // and refuse the first step, so it saturates instead.
  const Program p = assemble("li $v0, 7\nhalt");
  EXPECT_EQ(simulate({.program = &p, .machine = base_machine(),
                      .max_cycles = ~std::uint64_t{0}})
                .committed,
            2u);
}

TEST(Timing, TracelessRunawayEndsAtTheDefaultStepBound) {
  // At the default max_cycles the recording bound alone is ~1.7e10 steps,
  // and a program that never halts grew its trace until allocation
  // failed. Capped at kDefaultStepBound it ends in a named error.
  const Program p = assemble("loop: j loop");
  try {
    simulate({.program = &p, .machine = base_machine()});
    ADD_FAILURE() << "a program that never halts was simulated";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("did not halt within step bound"),
              std::string::npos)
        << e.what();
  }
}

TEST(Replay, RefusesTraceOfAnotherProgram) {
  // A trace is only meaningful next to the program it was recorded from:
  // its rows decide every replayed successor and which stream a step reads.
  // Another program must be refused by name, not replayed into statistics.
  const Workload& w = *find_workload("gsm_dec");
  const Program recorded = workload_program(w);
  const CommittedTrace trace = record_trace(recorded, nullptr, w.max_steps);
  const Program other = assemble(R"(
        li $v0, 1
        halt
  )");
  const auto expect_refused = [](const auto& run) {
    try {
      run();
      ADD_FAILURE() << "replayed a trace against another program";
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find("another program"),
                std::string::npos)
          << e.what();
    }
  };
  expect_refused([&] {
    simulate({.program = &other, .trace = &trace, .machine = base_machine()});
  });
  expect_refused([&] {
    simulate_replay_batch({.program = &other,
                           .trace = &trace,
                           .lanes = {{.machine = base_machine()}}});
  });
  // The program it was recorded from, even as a separate copy, replays.
  const Program copy = workload_program(w);
  EXPECT_EQ(simulate({.program = &copy, .trace = &trace,
                      .machine = base_machine()})
                .committed,
            trace.size());
}

TEST(Timing, EmptyProgramCompletes) {
  const Program p = assemble("halt");
  const SimStats st = simulate({.program = &p, .machine = base_machine()});
  EXPECT_EQ(st.committed, 1u);
}

}  // namespace
}  // namespace t1000

namespace t1000 {
namespace {

TEST(Timing, MultiCycleExtChargesDeepChains) {
  // A 6-op add chain maps to 6 LUT levels -> 2 cycles at 3 levels/cycle,
  // 6 cycles at 1 level/cycle. The dependent EXT chain exposes the latency.
  ExtInstTable table;
  std::vector<MicroOp> uops;
  for (int i = 0; i < 6; ++i) {
    uops.push_back({.op = Opcode::kAddu,
                    .dst = static_cast<std::int8_t>(2 + i),
                    .a = static_cast<std::int8_t>(i == 0 ? 0 : 1 + i),
                    .b = 1});
  }
  table.intern(ExtInstDef(2, uops));
  const Program p = assemble(R"(
        li $t0, 1
        li $s0, 1000
  loop: ext $t0, $t0, $t0, 0   # dependent chain across iterations
        andi $t0, $t0, 0xFF
        addiu $s0, $s0, -1
        bgtz $s0, loop
        halt
  )");
  MachineConfig single;
  single.pfu = {.count = 1, .reconfig_latency = 10};
  MachineConfig depth = single;
  depth.pfu.multi_cycle_ext = true;
  MachineConfig strict = depth;
  strict.pfu.levels_per_cycle = 1;
  const SimStats a = simulate({.program = &p, .ext_table = &table, .machine = single});
  const SimStats b = simulate({.program = &p, .ext_table = &table, .machine = depth});
  const SimStats c = simulate({.program = &p, .ext_table = &table, .machine = strict});
  EXPECT_GT(b.cycles, a.cycles);
  EXPECT_GT(c.cycles, b.cycles);
  // ~6 cycles/iteration of extra latency at 1 level/cycle.
  EXPECT_GT(c.cycles, a.cycles + 4000);
}

TEST(Timing, MultiCycleExtLeavesShallowChainsAlone) {
  ExtInstTable table;
  table.intern(ExtInstDef(2, {{.op = Opcode::kSll, .dst = 2, .a = 0, .imm = 1},
                              {.op = Opcode::kAddu, .dst = 3, .a = 2, .b = 1}}));
  const Program p = assemble(R"(
        li $t0, 1
        li $t1, 2
        li $s0, 500
  loop: ext $t2, $t0, $t1, 0
        sw $t2, 0($sp)
        addiu $s0, $s0, -1
        bgtz $s0, loop
        halt
  )");
  MachineConfig single;
  single.pfu = {.count = 1, .reconfig_latency = 10};
  MachineConfig depth = single;
  depth.pfu.multi_cycle_ext = true;
  const SimStats a = simulate({.program = &p, .ext_table = &table, .machine = single});
  const SimStats b = simulate({.program = &p, .ext_table = &table, .machine = depth});
  EXPECT_EQ(a.cycles, b.cycles);  // sll is wiring, addu is 1 level -> 1 cycle
}

}  // namespace
}  // namespace t1000
