#include "sim/profiler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "asmkit/assembler.hpp"
#include "extinst/rewrite.hpp"
#include "extinst/select.hpp"
#include "isa/alu.hpp"
#include "workloads/workload.hpp"

namespace t1000 {
namespace {

// The profile as a StepInfo loop computes it, one reference-interpreter
// step at a time: the specification profile_program's interpreter policy
// must reproduce exactly, step bound included.
Profile reference_profile(const Program& program, const ExtInstTable* table,
                          std::uint64_t max_steps) {
  Executor exec(program, table, ExecMode::kReference);
  Profile prof;
  prof.insts.resize(static_cast<std::size_t>(program.size()));
  while (!exec.halted()) {
    if (exec.steps_executed() >= max_steps) {
      throw SimError("profile_program: step bound exceeded");
    }
    const StepInfo info = exec.step();
    if (info.index >= program.size()) break;  // clean off-the-end halt
    InstProfile& ip = prof.insts[static_cast<std::size_t>(info.index)];
    ++ip.count;
    for (int i = 0; i < info.num_src; ++i) {
      ip.max_src_width = std::max(
          ip.max_src_width,
          signed_width(info.src_vals[static_cast<std::size_t>(i)]));
    }
    if (info.has_result) {
      ip.max_result_width =
          std::max(ip.max_result_width, signed_width(info.result));
    }
    ++prof.total_dynamic;
    prof.total_base_cycles +=
        static_cast<std::uint64_t>(base_latency(info.ins.op));
  }
  return prof;
}

// Reports the first differing static instruction rather than one failure
// per instruction.
void expect_same_profile(const Profile& got, const Profile& want,
                         const std::string& tag) {
  EXPECT_EQ(got.total_dynamic, want.total_dynamic) << tag;
  EXPECT_EQ(got.total_base_cycles, want.total_base_cycles) << tag;
  ASSERT_EQ(got.insts.size(), want.insts.size()) << tag;
  for (std::size_t i = 0; i < got.insts.size(); ++i) {
    const InstProfile& g = got.insts[i];
    const InstProfile& w = want.insts[i];
    if (g.count != w.count || g.max_src_width != w.max_src_width ||
        g.max_result_width != w.max_result_width) {
      ADD_FAILURE() << tag << ": instruction " << i << " profiled as {"
                    << g.count << ", " << g.max_src_width << ", "
                    << g.max_result_width << "}, expected {" << w.count
                    << ", " << w.max_src_width << ", " << w.max_result_width
                    << "}";
      return;
    }
  }
}

TEST(Profiler, CountsPerStaticInstruction) {
  const Program p = assemble(R"(
        li $t0, 0
        li $t1, 5
  loop: addiu $t0, $t0, 1
        bne $t0, $t1, loop
        halt
  )");
  const Profile prof = profile_program(p, 1000);
  EXPECT_EQ(prof.insts[0].count, 1u);
  EXPECT_EQ(prof.insts[1].count, 1u);
  EXPECT_EQ(prof.insts[2].count, 5u);
  EXPECT_EQ(prof.insts[3].count, 5u);
  EXPECT_EQ(prof.insts[4].count, 1u);
  EXPECT_EQ(prof.total_dynamic, 13u);
}

TEST(Profiler, TracksOperandWidths) {
  const Program p = assemble(R"(
        li $t0, 7          # 4-bit value
        sll $t1, $t0, 10   # result 7<<10 needs 14 bits
        li $t2, 0x7FFFF    # 20-bit value
        addu $t3, $t2, $t2
        halt
  )");
  const Profile prof = profile_program(p, 1000);
  // sll: source width = width(7) = 4, result width = width(7168) = 14.
  EXPECT_EQ(prof.insts[1].max_src_width, 4);
  EXPECT_EQ(prof.insts[1].max_result_width, 14);
  // addu over 20-bit sources (0x7FFFF = 19 value bits + sign).
  EXPECT_EQ(prof.insts[4].max_src_width, 20);
  EXPECT_EQ(prof.insts[4].max_result_width, 21);  // 0xFFFFE
}

TEST(Profiler, WidthIsMaxOverExecutions) {
  const Program p = assemble(R"(
        li $t0, 0
        li $t1, 3
        li $t2, 0
  loop: sll $t3, $t2, 8        # width grows as $t2 grows
        addiu $t2, $t2, 100
        addiu $t0, $t0, 1
        bne $t0, $t1, loop
        halt
  )");
  const Profile prof = profile_program(p, 1000);
  // Final iteration shifts 200 << 8 = 51200 (width 17).
  EXPECT_EQ(prof.insts[3].max_result_width, 17);
}

TEST(Profiler, BaseCyclesWeighsMultiCycleOps) {
  const Program p = assemble(R"(
      li $t0, 3
      mul $t1, $t0, $t0
      halt
  )");
  const Profile prof = profile_program(p, 100);
  // li(1) + mul(3) + halt(1)
  EXPECT_EQ(prof.total_base_cycles, 5u);
  EXPECT_EQ(prof.cycles_of(1, p), 3u);
}

TEST(Profiler, ThrowsWhenBoundExceeded) {
  const Program p = assemble("loop: j loop");
  EXPECT_THROW(profile_program(p, 50), SimError);
}

TEST(Profiler, ExtInstructionsProfiled) {
  ExtInstTable table;
  table.intern(ExtInstDef(2, {{.op = Opcode::kAddu, .dst = 2, .a = 0, .b = 1}}));
  const Program p = assemble(R"(
      li $t0, 4
      li $t1, 5
      ext $v0, $t0, $t1, 0
      halt
  )");
  const Profile prof = profile_program(p, 100, &table);
  EXPECT_EQ(prof.insts[2].count, 1u);
  EXPECT_EQ(prof.insts[2].max_result_width, 5);  // 9 needs 5 signed bits
}

// Sentinel-terminated: the compiled kernel's main returns through `jr $ra`
// off the end of text, and the sentinel dispatch after the last executed
// step still needs one bound check.
TEST(Profiler, StepBoundEdgeMatchesReferenceLoop) {
  const Workload& w = *find_workload("cc_cikernel");
  const Program p = workload_program(w);
  const std::uint64_t steps = profile_program(p, w.max_steps).total_dynamic;
  ASSERT_GT(steps, 0u);
  EXPECT_THROW(reference_profile(p, nullptr, steps), SimError);
  try {
    profile_program(p, steps);
    ADD_FAILURE() << "a bound equal to the executed steps must throw";
  } catch (const SimError& e) {
    EXPECT_STREQ(e.what(), "profile_program: step bound exceeded");
  }
  expect_same_profile(profile_program(p, steps + 1),
                      reference_profile(p, nullptr, steps + 1), w.name);
}

// Halt-terminated: the halt is itself the last counted step, so a bound
// equal to the executed steps suffices and one fewer throws.
TEST(Profiler, StepBoundEdgeOnHaltMatchesReferenceLoop) {
  const Program p = assemble(R"(
        li $t0, 0
        li $t1, 5
  loop: addiu $t0, $t0, 1
        bne $t0, $t1, loop
        halt
  )");
  EXPECT_THROW(reference_profile(p, nullptr, 12), SimError);
  EXPECT_THROW(profile_program(p, 12), SimError);
  expect_same_profile(profile_program(p, 13), reference_profile(p, nullptr, 13),
                      "halt");
}

// Every bundled program: the paper suite, the extended suite and the
// compiled MiniC kernel.
const std::vector<Workload>& bundled_workloads() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> out = all_workloads();
    for (const auto* suite : {&extended_workloads(), &compiled_workloads()}) {
      out.insert(out.end(), suite->begin(), suite->end());
    }
    return out;
  }();
  return all;
}

class ProfilePolicyDifferential
    : public ::testing::TestWithParam<std::size_t> {};

// The interpreter policy against the StepInfo loop over the reference
// interpreter, for the baseline and for greedy and selective rewrites at
// the paper's 2-in/1-out shape and the widened 4-in/2-out one, whose
// MIMO EXTs execute through the kInterp commit path.
TEST_P(ProfilePolicyDifferential, MatchesStepInfoLoop) {
  const Workload& w = bundled_workloads()[GetParam()];
  const Program p = workload_program(w);
  const Profile base = reference_profile(p, nullptr, w.max_steps);
  expect_same_profile(profile_program(p, w.max_steps), base, w.name);
  for (const auto& [inputs, outputs] : {std::pair{2, 1}, std::pair{4, 2}}) {
    SelectPolicy policy;
    policy.extract.max_inputs = inputs;
    policy.extract.max_outputs = outputs;
    // analyze_program profiles through the UopProgram overload.
    const AnalyzedProgram ap =
        analyze_program(p, w.max_steps, policy.extract);
    const std::string shape = w.name + " " + std::to_string(inputs) + "in" +
                              std::to_string(outputs) + "out";
    expect_same_profile(ap.profile, base, shape + " analysis");
    for (const bool greedy : {true, false}) {
      const Selection sel = greedy ? select_greedy(ap, policy.lut_budget)
                                   : select_selective(ap, policy);
      const Program rewritten = rewrite_program(p, sel.apps).program;
      expect_same_profile(
          profile_program(rewritten, w.max_steps, &sel.table),
          reference_profile(rewritten, &sel.table, w.max_steps),
          shape + (greedy ? " greedy" : " selective"));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Bundled, ProfilePolicyDifferential,
    ::testing::Range<std::size_t>(0, bundled_workloads().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return bundled_workloads()[info.param].name;
    });

}  // namespace
}  // namespace t1000
