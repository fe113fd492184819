// Pins every committed trace's fingerprint: step count, checksum and
// content_hash for each bundled workload (paper suite, extended suite and
// the compiled kernel) under the baseline, greedy and selective (2 and 4
// PFUs) preparations, and for the 64 seeded random programs of the uop
// fuzz battery.
//
// content_hash is `trace_hash` in every results row and feeds the
// benchmark's results digest, so a change to how traces are stored must
// leave these lines untouched. Regenerate only for a deliberate change to
// the recorded stream, by running the binary directly:
//
//   T1000_REGEN_GOLDEN=1 ./integration_test
//       --gtest_filter='TraceFingerprint.*'
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/json.hpp"
#include "sim/trace.hpp"
#include "support/random_program.hpp"

namespace t1000 {
namespace {

constexpr std::uint64_t kFuzzStepBound = 1u << 16;

std::string fixture_path() {
  return std::string(T1000_GOLDEN_DIR) + "/trace_fingerprints.txt";
}

std::string fingerprint(const CommittedTrace& trace) {
  return std::to_string(trace.size()) + " " +
         std::to_string(trace.checksum()) + " " +
         to_hex(trace.content_hash());
}

// Every case in fixture order: "<workload>/<preparation>" for the bundled
// programs, then "fuzz/<seed>".
std::vector<std::pair<std::string, std::string>> fingerprints() {
  std::vector<Workload> workloads = all_workloads();
  for (const auto* suite : {&extended_workloads(), &compiled_workloads()}) {
    workloads.insert(workloads.end(), suite->begin(), suite->end());
  }
  std::vector<std::pair<std::string, std::string>> out;
  for (const Workload& w : workloads) {
    const WorkloadExperiment experiment(w);
    for (const RunSpec& spec : {baseline_spec(w.name),
                                greedy_spec(w.name, "greedy", 2, 10),
                                selective_spec(w.name, "sel2", 2, 10),
                                selective_spec(w.name, "sel4", 4, 10)}) {
      out.emplace_back(w.name + "/" + spec.label,
                       fingerprint(*experiment.prepared(spec).trace));
    }
  }
  for (std::uint32_t seed = 1; seed <= 64; ++seed) {
    const Program p = fuzz::build_random_program(seed);
    out.emplace_back("fuzz/" + std::to_string(seed),
                     fingerprint(record_trace(p, nullptr, kFuzzStepBound)));
  }
  return out;
}

TEST(TraceFingerprint, EveryTraceMatchesFixture) {
  const auto cases = fingerprints();
  if (std::getenv("T1000_REGEN_GOLDEN") != nullptr) {
    std::ofstream os(fixture_path(), std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(os.is_open()) << "cannot write " << fixture_path();
    for (const auto& [key, value] : cases) os << key << ' ' << value << '\n';
    return;
  }
  std::map<std::string, std::string> fixture;
  std::ifstream is(fixture_path());
  std::string line;
  while (std::getline(is, line)) {
    const std::size_t space = line.find(' ');
    if (space != std::string::npos) {
      fixture[line.substr(0, space)] = line.substr(space + 1);
    }
  }
  ASSERT_EQ(fixture.size(), cases.size()) << fixture_path();
  for (const auto& [key, value] : cases) {
    const auto it = fixture.find(key);
    ASSERT_NE(it, fixture.end()) << "missing case " << key;
    EXPECT_EQ(it->second, value) << key << ": trace fingerprint drifted";
  }
}

}  // namespace
}  // namespace t1000
