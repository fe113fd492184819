// The uop interpreter's functional-equivalence proof.
//
// Executor and record_trace default to the pre-decoded threaded-code
// interpreter (sim/ucode.hpp); the original instruction-by-instruction
// interpreter is kept as the executable specification (ExecMode::kReference).
// This suite pins the two byte-identical over every registered workload
// (paper suite + extended suite + the compiled kernel — 13 programs) under
// all three selectors:
// the committed traces must agree on content_hash and checksum, a cursor
// over the trace must derive every timing-visible StepInfo field a live
// reference interpreter reports, and a timing simulation replayed from
// either trace must produce byte-identical SimStats JSON.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/serialize.hpp"
#include "sim/trace.hpp"
#include "sim/ucode.hpp"
#include "support/trace_lockstep.hpp"
#include "uarch/timing.hpp"

namespace t1000 {
namespace {

const std::vector<Workload>& every_workload() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> out = all_workloads();
    for (const auto* suite : {&extended_workloads(), &compiled_workloads()}) {
      out.insert(out.end(), suite->begin(), suite->end());
    }
    return out;
  }();
  return all;
}

// Rewritten programs must be legal on the machine they run on: give every
// spec a PFU budget, and teach the selective pass about it (the invariant
// selective_spec() maintains).
RunSpec spec_for(const std::string& workload, Selector selector) {
  switch (selector) {
    case Selector::kNone:
      return baseline_spec(workload);
    case Selector::kGreedy:
      return greedy_spec(workload, "greedy", 4, 10);
    case Selector::kSelective:
      return selective_spec(workload, "selective", 4, 10);
  }
  return baseline_spec(workload);
}

class UcodeDifferential : public ::testing::TestWithParam<std::size_t> {
 protected:
  // One experiment per workload, shared across the three selector cases so
  // the (expensive) preparation is built once.
  static WorkloadExperiment& experiment(std::size_t index) {
    static std::vector<std::unique_ptr<WorkloadExperiment>> cache(
        every_workload().size());
    auto& slot = cache[index];
    if (!slot) {
      slot = std::make_unique<WorkloadExperiment>(every_workload()[index]);
    }
    return *slot;
  }
};

TEST_P(UcodeDifferential, TraceAndStatsMatchReferenceInterpreter) {
  const Workload& w = every_workload()[GetParam()];
  WorkloadExperiment& exp = experiment(GetParam());

  for (const Selector selector :
       {Selector::kNone, Selector::kGreedy, Selector::kSelective}) {
    const RunSpec spec = spec_for(w.name, selector);
    const WorkloadExperiment::PreparedView view = exp.prepared(spec);
    ASSERT_NE(view.program, nullptr);
    ASSERT_NE(view.trace, nullptr);
    ASSERT_NE(view.ucode, nullptr);
    const std::string tag =
        w.name + " / " + std::string(selector_name(selector));

    // The harness recorded view.trace through the uop path; re-record the
    // very same rewritten program through the reference interpreter.
    const CommittedTrace reference = record_trace(
        *view.program, view.table, w.max_steps, ExecMode::kReference);

    EXPECT_EQ(view.trace->size(), reference.size()) << tag;
    EXPECT_EQ(view.trace->checksum(), reference.checksum()) << tag;
    EXPECT_EQ(view.trace->content_hash(), reference.content_hash()) << tag;

    // Equal fingerprints only say the two recordings agree, and both go
    // through one writer. Check the successor rules themselves: replay the
    // trace next to a live reference interpreter, step by step.
    fuzz::expect_cursor_matches_reference(*view.program, view.table,
                                          *view.trace, tag);

    // A timing simulation replayed from either trace must land on the same
    // SimStats, byte for byte.
    const RunSpec base = spec_for(w.name, selector);
    const SimStats from_ucode =
        simulate({.program = view.program, .ext_table = view.table,
                  .trace = view.trace, .machine = base.machine});
    const SimStats from_reference =
        simulate({.program = view.program, .ext_table = view.table,
                  .trace = &reference, .machine = base.machine});
    EXPECT_EQ(to_json(from_ucode).dump(), to_json(from_reference).dump())
        << tag;
  }
}

TEST_P(UcodeDifferential, StepForStepExecutorEquality) {
  // Beyond the committed trace: drive the two interpreters side by side
  // through the *baseline* program and require the full architectural
  // state to agree after every step (registers compared at the end; pc,
  // halt, and StepInfo per step).
  const Workload& w = every_workload()[GetParam()];
  const Program p = workload_program(w);

  Executor ref(p, nullptr, ExecMode::kReference);
  Executor uop(p, nullptr, ExecMode::kUcode);
  std::uint64_t steps = 0;
  while (!ref.halted() && steps < w.max_steps) {
    ASSERT_FALSE(uop.halted()) << w.name << " step " << steps;
    const StepInfo want = ref.step();
    const StepInfo got = uop.step();
    ASSERT_EQ(got.index, want.index) << w.name << " step " << steps;
    ASSERT_EQ(got.next_index, want.next_index) << w.name << " step " << steps;
    ASSERT_EQ(got.ins, want.ins) << w.name << " step " << steps;
    ASSERT_EQ(got.is_mem, want.is_mem) << w.name << " step " << steps;
    ASSERT_EQ(got.mem_addr, want.mem_addr) << w.name << " step " << steps;
    ASSERT_EQ(got.mem_size, want.mem_size) << w.name << " step " << steps;
    ASSERT_EQ(got.has_result, want.has_result) << w.name << " step " << steps;
    ASSERT_EQ(got.result, want.result) << w.name << " step " << steps;
    ASSERT_EQ(got.num_src, want.num_src) << w.name << " step " << steps;
    ASSERT_EQ(got.src_vals, want.src_vals) << w.name << " step " << steps;
    ASSERT_EQ(got.branch_taken, want.branch_taken)
        << w.name << " step " << steps;
    ++steps;
  }
  EXPECT_TRUE(ref.halted()) << w.name << ": did not halt within its bound";
  EXPECT_EQ(uop.halted(), ref.halted()) << w.name;
  EXPECT_EQ(uop.pc(), ref.pc()) << w.name;
  EXPECT_EQ(uop.steps_executed(), ref.steps_executed()) << w.name;
  for (Reg r = 0; r < kNumRegs; ++r) {
    EXPECT_EQ(uop.reg(r), ref.reg(r)) << w.name << " $" << int(r);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, UcodeDifferential,
    ::testing::Range<std::size_t>(0, every_workload().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return every_workload()[info.param].name;
    });

}  // namespace
}  // namespace t1000
