// Round-trip pins for the spec-side deserializers (serialize.hpp).
//
// The serve layer re-hydrates RunSpecs from client JSON; these tests pin
// the contract that makes daemon results byte-identical to in-process
// ones: to_json(run_spec_from_json(to_json(spec))) is the identity, absent
// members keep struct defaults, and unknown members fail loudly instead of
// silently simulating the wrong machine.
#include "harness/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "harness/cache.hpp"
#include "harness/experiment.hpp"
#include "harness/json.hpp"

namespace t1000 {
namespace {

TEST(SerializeRoundTrip, DefaultRunSpecSurvivesExactly) {
  RunSpec spec;
  spec.workload = "gsm_dec";
  const Json j = to_json(spec);
  const RunSpec back = run_spec_from_json(j);
  EXPECT_EQ(to_json(back).dump(), j.dump());
}

// A spec whose members of every type and depth differ from the defaults.
RunSpec customized_spec() {
  RunSpec spec = selective_spec("mpeg2_enc", "4pfu", 4, 10);
  spec.machine.fetch_width = 8;
  spec.machine.ruu_size = 128;
  spec.machine.il1.size_bytes = 64 * 1024;
  spec.machine.il1.assoc = 2;
  spec.machine.dtlb.entries = 128;
  spec.machine.pfu.multi_cycle_ext = true;
  spec.machine.pfu.levels_per_cycle = 2;
  spec.machine.branch.kind = BranchPredictorKind::kGshare;
  spec.machine.branch.mispredict_penalty = 7;
  spec.policy.time_threshold = 0.01;
  spec.policy.lut_budget = 300;
  spec.policy.extract.max_width = 12;
  spec.max_cycles = 123456789u;
  spec.verify = true;
  spec.observe = true;
  return spec;
}

TEST(SerializeRoundTrip, FullyCustomizedRunSpecSurvivesExactly) {
  const Json j = to_json(customized_spec());
  const RunSpec back = run_spec_from_json(j);
  EXPECT_EQ(to_json(back).dump(), j.dump());
}

TEST(SerializeRoundTrip, AbsentMembersKeepStructDefaults) {
  // A minimal request names only what it changes; everything else must
  // default exactly as the default-constructed structs do.
  const Json j = Json::parse(
      "{\"workload\": \"epic\", \"machine\": {\"issue_width\": 8}}");
  const RunSpec spec = run_spec_from_json(j);
  const RunSpec defaults;
  EXPECT_EQ(spec.workload, "epic");
  EXPECT_EQ(spec.machine.issue_width, 8);
  EXPECT_EQ(spec.machine.fetch_width, defaults.machine.fetch_width);
  EXPECT_EQ(spec.machine.il1.size_bytes, defaults.machine.il1.size_bytes);
  EXPECT_EQ(spec.selector, defaults.selector);
  EXPECT_EQ(spec.max_cycles, defaults.max_cycles);
  EXPECT_EQ(spec.verify, defaults.verify);

  // The same holds inside nested objects: naming one cache, TLB, PFU,
  // predictor or extract member keeps the machine's own value for the
  // rest, not a zeroed struct's.
  const RunSpec nested = run_spec_from_json(Json::parse(
      "{\"workload\": \"epic\", \"machine\": {\"dl1\": {\"assoc\": 2}, "
      "\"l2\": {\"hit_latency\": 8}, \"il1\": {\"size_bytes\": 8192}, "
      "\"itlb\": {\"entries\": 16}, \"pfu\": {\"count\": 2}, "
      "\"branch\": {\"mispredict_penalty\": 5}}, "
      "\"policy\": {\"extract\": {\"max_inputs\": 4}}}"));
  MachineConfig machine = defaults.machine;
  machine.dl1.assoc = 2;
  machine.l2.hit_latency = 8;
  machine.il1.size_bytes = 8192;
  machine.itlb.entries = 16;
  machine.pfu.count = 2;
  machine.branch.mispredict_penalty = 5;
  EXPECT_EQ(to_json(nested.machine).dump(), to_json(machine).dump());
  SelectPolicy policy = defaults.policy;
  policy.extract.max_inputs = 4;
  EXPECT_EQ(to_json(nested.policy).dump(), to_json(policy).dump());
}

void expect_throw_containing(const std::string& text,
                             const std::string& needle) {
  try {
    run_spec_from_json(Json::parse(text));
    FAIL() << "expected JsonError for: " << text;
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "diagnostic was: " << e.what();
  }
}

TEST(SerializeRoundTrip, UnknownMembersAreRejectedWithContext) {
  expect_throw_containing("{\"workload\": \"epic\", \"bogus\": 1}", "bogus");
  expect_throw_containing(
      "{\"workload\": \"epic\", \"machine\": {\"issue_widht\": 8}}",
      "issue_widht");
  expect_throw_containing(
      "{\"workload\": \"epic\", \"policy\": {\"extract\": {\"depth\": 3}}}",
      "depth");
  expect_throw_containing(
      "{\"workload\": \"epic\", \"machine\": {\"branch\": {\"knid\": "
      "\"gshare\"}}}",
      "knid");
  expect_throw_containing(
      "{\"workload\": \"epic\", \"machine\": {\"dl1\": {\"assco\": 2}}}",
      "member \"dl1.assco\" is unknown");
}

TEST(SerializeRoundTrip, OutOfRangeNumbersAreRejectedByName) {
  // ruu_size 2^32 + 64 used to wrap to a 64-entry RUU, and a candidate
  // shape past the EXT encoding reached the extractor unchecked. A nested
  // member is named by its path below the machine or policy, as
  // validate(MachineConfig) names it, and a value of the wrong type or past
  // the int64 range names its member too.
  const std::string run = "{\"workload\": \"epic\", ";
  expect_throw_containing(run + "\"machine\": {\"ruu_size\": 4294967360}}",
                          "\"ruu_size\" must be in [-2147483648, 2147483647]");
  expect_throw_containing(
      run + "\"machine\": {\"dl1\": {\"size_bytes\": -1}}}",
      "\"dl1.size_bytes\" must be in [0, 4294967295] (got -1)");
  for (const char* bad : {"1e30", "\"big\""}) {
    expect_throw_containing(
        run + "\"machine\": {\"ruu_size\": " + bad + "}}",
        "member \"ruu_size\" must be an integer in [-2147483648, 2147483647]");
  }
  expect_throw_containing(
      run + "\"machine\": {\"branch\": {\"target_entries\": 0.5}}}",
      "member \"branch.target_entries\" must be an integer in");
  expect_throw_containing(
      run + "\"policy\": {\"extract\": {\"max_width\": 4294967296}}}",
      "member \"extract.max_width\" must be in");
  for (const char* bad : {"max_inputs\": 0", "max_inputs\": 5",
                          "max_outputs\": 3", "min_length\": 0",
                          "max_length\": 9"}) {
    const std::string field(bad, std::string_view(bad).find('"'));
    expect_throw_containing(
        run + "\"policy\": {\"extract\": {\"" + bad + "}}}",
        "select policy: extract." + field + " must be in [1, ");
  }
  // A cache entry's outcome goes through the same checked reader.
  Json outcome = to_json(RunOutcome{});
  outcome["lengths"] = Json::array_of(std::vector<long long>{2, 4294967298});
  EXPECT_THROW(run_outcome_from_json(outcome), JsonError);
}

TEST(SerializeRoundTrip, BadEnumNamesAreRejected) {
  expect_throw_containing("{\"workload\": \"epic\", \"selector\": \"wat\"}",
                          "member \"selector\" must be a known name");
  expect_throw_containing(
      "{\"workload\": \"epic\", \"machine\": {\"branch\": {\"kind\": "
      "\"oracle\"}}}",
      "member \"branch.kind\" must be a known name (got \"oracle\")");
}

TEST(SerializeRoundTrip, BranchPredictorNamesRoundTrip) {
  for (const BranchPredictorKind kind :
       {BranchPredictorKind::kPerfect, BranchPredictorKind::kBimodal,
        BranchPredictorKind::kGshare, BranchPredictorKind::kStaticNotTaken}) {
    BranchPredictorKind back{};
    ASSERT_TRUE(branch_predictor_from_name(branch_predictor_name(kind), &back));
    EXPECT_EQ(back, kind);
  }
  BranchPredictorKind out = BranchPredictorKind::kPerfect;
  EXPECT_FALSE(branch_predictor_from_name("oracle", &out));
  EXPECT_EQ(out, BranchPredictorKind::kPerfect);  // untouched on failure
}

TEST(SerializeRoundTrip, MistypedMembersAreNamed) {
  // Each used to answer a bare "json: expected bool, have int", naming no
  // member.
  const std::string run = "{\"workload\": \"gsm_dec\", ";
  expect_throw_containing(run + "\"verify\": 1}",
                          "member \"verify\" must be a boolean");
  expect_throw_containing(run + "\"policy\": {\"time_threshold\": \"x\"}}",
                          "member \"time_threshold\" must be a number");
  expect_throw_containing(run + "\"label\": 5}",
                          "member \"label\" must be a string");
  expect_throw_containing(
      run + "\"machine\": {\"pfu\": {\"multi_cycle_ext\": \"yes\"}}}",
      "member \"pfu.multi_cycle_ext\" must be a boolean");
  expect_throw_containing(run + "\"machine\": {\"dl1\": 5}}",
                          "member \"dl1\" must be an object");
  expect_throw_containing(run + "\"machine\": 5}",
                          "member \"machine\" must be an object");
  expect_throw_containing(run + "\"machine\": {\"branch\": {\"kind\": 3}}}",
                          "member \"branch.kind\" must be a string");
  expect_throw_containing("{\"label\": \"x\"}",
                          "member \"workload\" is missing");
}

TEST(SerializeRoundTrip, PolicyNumbersAreRangeChecked) {
  // Each used to run as a silent baseline: a negative PFU count or LUT
  // budget selects nothing.
  const std::string run =
      "{\"workload\": \"gsm_dec\", \"selector\": \"selective\", ";
  expect_throw_containing(run + "\"policy\": {\"num_pfus\": -5}}",
                          "num_pfus must be in [-1, 2048] (got -5)");
  expect_throw_containing(run + "\"policy\": {\"num_pfus\": 2049}}",
                          "num_pfus must be in [-1, 2048] (got 2049)");
  expect_throw_containing(run + "\"policy\": {\"lut_budget\": -1}}",
                          "lut_budget must be in [0, 2147483647] (got -1)");
  expect_throw_containing(run + "\"policy\": {\"time_threshold\": -3}}",
                          "time_threshold must be in [0, 1] (got -3)");
  expect_throw_containing(run + "\"policy\": {\"time_threshold\": 1.5}}",
                          "time_threshold must be in [0, 1] (got 1.5)");
  for (const char* good :
       {"\"num_pfus\": -1", "\"num_pfus\": 0", "\"num_pfus\": 2048",
        "\"lut_budget\": 0", "\"time_threshold\": 0",
        "\"time_threshold\": 1"}) {
    EXPECT_NO_THROW(run_spec_from_json(
        Json::parse(run + "\"policy\": {" + good + "}}")))
        << good;
  }
}

// The serialized bytes, pinned: the round trips above compare to_json with
// itself, so a renamed or reordered member would pass them and change every
// cache key and results document. Regenerate deliberately with
//   T1000_REGEN_GOLDEN=1 ./harness_test --gtest_filter='SerializeGolden.*'
TEST(SerializeGolden, DumpsMatchTheFixture) {
  RunSpec plain;
  plain.workload = "gsm_dec";
  RunOutcome observed;
  observed.stats.cycles = 57279;
  observed.stats.committed = 74000;
  observed.stats.il1 = {1000, 12, 0};
  observed.stats.dl1 = {400, 30, 7};
  observed.stats.l2 = {42, 9, 2};
  observed.stats.itlb = {1000, 1, 0};
  observed.stats.dtlb = {400, 2, 0};
  observed.stats.pfu = {120, 110, 10};
  observed.stats.branch = {900, 31, 20, 4};
  observed.num_configs = 2;
  observed.num_apps = 5;
  observed.lengths = {3, 4};
  observed.lut_costs = {17, 105};
  observed.checksum = 0xDEADBEEF;
  observed.trace_steps = 123456;
  observed.trace_hash = 0x0123456789ABCDEFull;
  observed.observed = true;
  observed.stalls.cycles = 57279;
  observed.stalls.commit_cycles = 40000;
  for (int c = 0; c < kNumStallCauses; ++c) {
    observed.stalls.causes[c] = static_cast<std::uint64_t>(c + 1) * 100;
  }
  const std::string text =
      "run_spec.default " + to_json(plain).dump() + "\n" +
      "run_spec.customized " + to_json(customized_spec()).dump() + "\n" +
      "run_outcome.observed " + to_json(observed).dump() + "\n" +
      "cache_key.customized " +
      make_cache_key(customized_spec(), 0x1234u, 100u).text + "\n";
  const std::string path =
      std::string(T1000_GOLDEN_DIR) + "/serialized_bytes.txt";

  if (std::getenv("T1000_REGEN_GOLDEN") != nullptr) {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(os.is_open()) << "cannot write " << path;
    os << text;
    return;
  }
  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(is.is_open())
      << "missing fixture " << path
      << " — regenerate with T1000_REGEN_GOLDEN=1 (see the test comment)";
  std::ostringstream buf;
  buf << is.rdbuf();
  EXPECT_EQ(buf.str(), text)
      << "serialized bytes drifted from the golden fixture; if the change "
      << "is intended, regenerate with T1000_REGEN_GOLDEN=1 and review";
}

}  // namespace
}  // namespace t1000
