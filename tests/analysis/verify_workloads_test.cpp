// Zero-diagnostic sweep: every bundled workload, under no selection and
// under both selection algorithms — at the paper's default 2-in/1-out
// candidate shape and at two widened shapes (4-in/1-out, 4-in/2-out) —
// verifies clean, translation proof included. This is the repo-level
// guarantee behind the CI t1000-verify gate.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "analysis/verifier.hpp"
#include "extinst/rewrite.hpp"
#include "extinst/select.hpp"
#include "sim/profiler.hpp"
#include "workloads/workload.hpp"

namespace t1000 {
namespace {

std::vector<Workload> every_workload() {
  std::vector<Workload> all = all_workloads();
  for (const Workload& w : extended_workloads()) all.push_back(w);
  return all;
}

enum class Mode { kNone, kGreedy, kSelective };

struct Shape {
  int max_inputs;
  int max_outputs;
};
// Default paper shape plus the two widened steps the EXT encoding
// supports (mirrors bench/ablation_shapes.cpp).
constexpr Shape kShapes[] = {{2, 1}, {4, 1}, {4, 2}};

class VerifyWorkloads
    : public ::testing::TestWithParam<std::tuple<int, Mode, int>> {};

TEST_P(VerifyWorkloads, ZeroDiagnostics) {
  const Workload w =
      every_workload()[static_cast<std::size_t>(std::get<0>(GetParam()))];
  const Mode mode = std::get<1>(GetParam());
  const Shape shape = kShapes[static_cast<std::size_t>(std::get<2>(GetParam()))];
  const Program p = workload_program(w);
  SelectPolicy policy;
  policy.extract.max_inputs = shape.max_inputs;
  policy.extract.max_outputs = shape.max_outputs;
  const VerifyOptions options = verify_options_for(policy);

  VerifyReport report;
  if (mode == Mode::kNone) {
    report = verify_module(p, nullptr, options);
  } else {
    const AnalyzedProgram ap =
        analyze_program(p, w.max_steps, policy.extract);
    const Selection sel = mode == Mode::kGreedy
                              ? select_greedy(ap, policy.lut_budget)
                              : select_selective(ap, policy);
    const RewriteResult rr = rewrite_program(p, sel.apps);
    report = verify_selection(ap, sel, rr, options);
    // Every application's equivalence is proven symbolically, over the
    // whole input space.
    EXPECT_EQ(report.stats.translation_proven, report.stats.apps);
  }
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.diagnostics.empty()) << report.summary();
}

INSTANTIATE_TEST_SUITE_P(
    All, VerifyWorkloads,
    ::testing::Combine(::testing::Range(0, 12),
                       ::testing::Values(Mode::kNone, Mode::kGreedy,
                                         Mode::kSelective),
                       ::testing::Values(0)),
    [](const ::testing::TestParamInfo<std::tuple<int, Mode, int>>& info) {
      const Mode mode = std::get<1>(info.param);
      const std::string suffix = mode == Mode::kNone     ? "none"
                                 : mode == Mode::kGreedy ? "greedy"
                                                         : "selective";
      return every_workload()[static_cast<std::size_t>(
                 std::get<0>(info.param))]
                 .name +
             "_" + suffix;
    });

// The widened candidate shapes re-run only the selection modes (module
// verification is shape-independent).
INSTANTIATE_TEST_SUITE_P(
    WidenedShapes, VerifyWorkloads,
    ::testing::Combine(::testing::Range(0, 12),
                       ::testing::Values(Mode::kGreedy, Mode::kSelective),
                       ::testing::Values(1, 2)),
    [](const ::testing::TestParamInfo<std::tuple<int, Mode, int>>& info) {
      const Mode mode = std::get<1>(info.param);
      const Shape shape =
          kShapes[static_cast<std::size_t>(std::get<2>(info.param))];
      return every_workload()[static_cast<std::size_t>(
                 std::get<0>(info.param))]
                 .name +
             (mode == Mode::kGreedy ? "_greedy_" : "_selective_") +
             std::to_string(shape.max_inputs) + "in" +
             std::to_string(shape.max_outputs) + "out";
    });

}  // namespace
}  // namespace t1000
