// Golden-number regression tests for timing edge cases.
//
// Each scenario pins the full SimStats JSON of one microarchitectural
// corner — store-to-load timing, fetch stopping at taken branches, RUU-full
// dispatch stalls, and EXT issue blocked behind an in-flight
// reconfiguration — against a checked-in fixture under tests/uarch/golden/.
// Any timing-model change that moves these numbers must be deliberate:
// regenerate with
//
//   T1000_REGEN_GOLDEN=1 ./uarch_test --gtest_filter='TimingGolden.*'
//
// and review the fixture diff.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "asmkit/assembler.hpp"
#include "harness/serialize.hpp"
#include "uarch/timing.hpp"

namespace t1000 {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(T1000_GOLDEN_DIR) + "/" + name + ".json";
}

void check_golden(const std::string& name, const Program& program,
                  const ExtInstTable* table, const MachineConfig& machine) {
  const SimStats stats =
      simulate({.program = &program, .ext_table = table, .machine = machine});
  const std::string text = to_json(stats).dump(2) + "\n";
  const std::string path = golden_path(name);

  if (std::getenv("T1000_REGEN_GOLDEN") != nullptr) {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(os.is_open()) << "cannot write " << path;
    os << text;
    return;
  }

  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(is.is_open())
      << "missing fixture " << path
      << " — regenerate with T1000_REGEN_GOLDEN=1 (see file comment)";
  std::ostringstream buf;
  buf << is.rdbuf();
  EXPECT_EQ(buf.str(), text)
      << name << ": timing drifted from the golden fixture; if the change "
      << "is intended, regenerate with T1000_REGEN_GOLDEN=1 and review";
}

TEST(TimingGolden, StoreToLoadForwarding) {
  // A load issued right behind a store to the same address must observe
  // the store's timing; the dependent add chains the iterations together.
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
  check_golden("store_to_load_forwarding", p, nullptr, MachineConfig{});
}

TEST(TimingGolden, FetchStopsAtTakenBranch) {
  // Two taken branches per iteration: fetch must stop at each one, so the
  // 4-wide front end never fills a full fetch packet past them.
  const Program p = assemble(R"(
        li $s0, 200
  loop: addiu $v0, $v0, 3
        j mid
        addiu $v0, $v0, 99     # skipped: fetch must not run through `j`
  mid:  addiu $s0, $s0, -1
        bgtz $s0, loop
        halt
  )");
  check_golden("fetch_stop_taken_branch", p, nullptr, MachineConfig{});
}

TEST(TimingGolden, RuuFullDispatchStall) {
  // A tiny 4-entry RUU behind a cache-missing load: dispatch stalls until
  // commit drains, serializing the independent adds that follow.
  const Program p = assemble(R"(
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
  MachineConfig machine;
  machine.ruu_size = 4;
  check_golden("ruu_full_dispatch_stall", p, nullptr, machine);
}

TEST(TimingGolden, ExtBlockedBehindReconfiguration) {
  // Two configurations alternating through one PFU: every EXT waits for a
  // fresh reconfiguration of the unit the previous EXT just reloaded.
  ExtInstTable table;
  table.intern(ExtInstDef(2, {{.op = Opcode::kSll, .dst = 2, .a = 0, .imm = 1},
                              {.op = Opcode::kAddu, .dst = 3, .a = 2, .b = 1}}));
  table.intern(ExtInstDef(2, {{.op = Opcode::kSll, .dst = 2, .a = 0, .imm = 2},
                              {.op = Opcode::kAddu, .dst = 3, .a = 2, .b = 1}}));
  const Program p = assemble(R"(
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
  MachineConfig machine;
  machine.pfu = {.count = 1, .reconfig_latency = 10};
  check_golden("ext_blocked_behind_reconfig", p, &table, machine);
}

}  // namespace
}  // namespace t1000
