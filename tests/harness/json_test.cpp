#include "harness/json.hpp"

#include <gtest/gtest.h>

#include <string>

#include "harness/serialize.hpp"

namespace t1000 {
namespace {

TEST(Json, ScalarDump) {
  EXPECT_EQ(Json().dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-7).dump(), "-7");
  EXPECT_EQ(Json(0.5).dump(), "0.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Json j = Json::object();
  j["zebra"] = Json(1);
  j["alpha"] = Json(2);
  j["mid"] = Json(3);
  EXPECT_EQ(j.dump(), "{\"zebra\":1,\"alpha\":2,\"mid\":3}");
}

TEST(Json, StringEscapes) {
  Json j = Json(std::string("a\"b\\c\nd\te\x01"));
  EXPECT_EQ(j.dump(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
  const Json parsed = Json::parse(j.dump());
  EXPECT_EQ(parsed.as_string(), j.as_string());
}

TEST(Json, RoundTripNested) {
  Json j = Json::object();
  j["list"] = Json::array_of<int>({1, 2, 3});
  j["obj"]["inner"] = Json(true);
  j["big"] = Json(std::uint64_t{1} << 62);
  j["neg"] = Json(-12345678901234LL);
  j["frac"] = Json(0.005);
  const Json parsed = Json::parse(j.dump());
  EXPECT_EQ(parsed, j);
  EXPECT_EQ(parsed.at("big").as_uint(), std::uint64_t{1} << 62);
  EXPECT_DOUBLE_EQ(parsed.at("frac").as_double(), 0.005);
  EXPECT_EQ(parsed.at("list").at(1).as_int(), 2);
  EXPECT_TRUE(parsed.at("obj").at("inner").as_bool());
}

TEST(Json, PrettyPrintParsesBack) {
  Json j = Json::object();
  j["a"] = Json::array_of<int>({1, 2});
  j["b"]["c"] = Json("x");
  const std::string pretty = j.dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(Json::parse(pretty), j);
}

TEST(Json, DumpIsDeterministic) {
  const auto build = [] {
    Json j = Json::object();
    j["x"] = Json(3.14159);
    j["y"] = Json::array_of<int>({5, 6});
    j["z"]["w"] = Json("s");
    return j.dump();
  };
  EXPECT_EQ(build(), build());
}

TEST(Json, ParseErrors) {
  EXPECT_THROW(Json::parse(""), JsonError);
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("[1,]"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), JsonError);
  EXPECT_THROW(Json::parse("nul"), JsonError);
  EXPECT_THROW(Json::parse("1 2"), JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
}

TEST(Json, NestingDepthIsCapped) {
  const auto arrays = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW(Json::parse(arrays(Json::kMaxDepth - 1)));
  EXPECT_NO_THROW(Json::parse(arrays(Json::kMaxDepth)));
  try {
    Json::parse(arrays(Json::kMaxDepth + 1));
    FAIL() << "expected JsonError past the nesting limit";
  } catch (const JsonError& e) {
    // Names the limit and where the first container past it opens.
    const std::string what = e.what();
    EXPECT_NE(what.find(std::to_string(Json::kMaxDepth)), std::string::npos)
        << what;
    EXPECT_NE(what.find("offset " + std::to_string(Json::kMaxDepth)),
              std::string::npos)
        << what;
  }
  // Objects count the same way, and hostile depth is an error, not a
  // stack overflow.
  std::string objects;
  for (int i = 0; i <= Json::kMaxDepth; ++i) objects += "{\"a\":";
  objects += "1" + std::string(Json::kMaxDepth + 1, '}');
  EXPECT_THROW(Json::parse(objects), JsonError);
  EXPECT_THROW(Json::parse(std::string(100000, '[')), JsonError);
}

TEST(Json, TypeErrors) {
  EXPECT_THROW(Json(1).as_string(), JsonError);
  EXPECT_THROW(Json("x").as_int(), JsonError);
  EXPECT_THROW(Json(0.5).as_int(), JsonError);
  EXPECT_THROW(Json(-1).as_uint(), JsonError);
  EXPECT_THROW(Json::object().at("missing"), JsonError);
}

TEST(Json, FnvIsStable) {
  // Reference value pinned so cache keys survive refactors: FNV-1a("t1000").
  EXPECT_EQ(fnv1a64("t1000"), 0xfdf42e9943ef1b82ull);
  EXPECT_NE(fnv1a64("a"), fnv1a64("b"));
  EXPECT_EQ(to_hex(0xdeadbeefull), "00000000deadbeef");
}

TEST(Serialize, MachineConfigIsCompleteAndStable) {
  const MachineConfig config;
  const Json j = to_json(config);
  EXPECT_EQ(j.at("issue_width").as_int(), 4);
  EXPECT_EQ(j.at("il1").at("size_bytes").as_int(), 16 * 1024);
  EXPECT_EQ(j.at("pfu").at("count").as_int(), 0);
  EXPECT_EQ(j.at("branch").at("kind").as_string(), "perfect");
  // Identical configs must serialize to identical bytes (cache keys).
  EXPECT_EQ(j.dump(), to_json(MachineConfig{}).dump());
  // Differing configs must not.
  MachineConfig other;
  other.pfu.count = 2;
  EXPECT_NE(j.dump(), to_json(other).dump());
}

TEST(Serialize, RunOutcomeRoundTrips) {
  RunOutcome out;
  out.stats.cycles = 123456789;
  out.stats.committed = 987654;
  out.stats.il1.accesses = 42;
  out.stats.il1.misses = 7;
  out.stats.dl1.writebacks = 3;
  out.stats.pfu.lookups = 10;
  out.stats.pfu.hits = 9;
  out.stats.pfu.reconfigurations = 1;
  out.stats.branch.conditional = 1000;
  out.stats.branch.cond_mispredicts = 31;
  out.num_configs = 2;
  out.num_apps = 5;
  out.lengths = {3, 4};
  out.lut_costs = {17, 105};
  out.checksum = 0xDEADBEEF;

  const RunOutcome back = run_outcome_from_json(to_json(out));
  EXPECT_EQ(back.stats.cycles, out.stats.cycles);
  EXPECT_EQ(back.stats.committed, out.stats.committed);
  EXPECT_EQ(back.stats.il1.misses, out.stats.il1.misses);
  EXPECT_EQ(back.stats.dl1.writebacks, out.stats.dl1.writebacks);
  EXPECT_EQ(back.stats.pfu.hits, out.stats.pfu.hits);
  EXPECT_EQ(back.stats.branch.cond_mispredicts,
            out.stats.branch.cond_mispredicts);
  EXPECT_EQ(back.num_configs, out.num_configs);
  EXPECT_EQ(back.num_apps, out.num_apps);
  EXPECT_EQ(back.lengths, out.lengths);
  EXPECT_EQ(back.lut_costs, out.lut_costs);
  EXPECT_EQ(back.checksum, out.checksum);
  // And the round trip is a fixed point at the byte level.
  EXPECT_EQ(to_json(back).dump(), to_json(out).dump());
}

TEST(Serialize, RunSpecSerializesSelectorAndPolicy) {
  const RunSpec spec = selective_spec("gsm_dec", "2pfu", 2, 10);
  const Json j = to_json(spec);
  EXPECT_EQ(j.at("workload").as_string(), "gsm_dec");
  EXPECT_EQ(j.at("label").as_string(), "2pfu");
  EXPECT_EQ(j.at("selector").as_string(), "selective");
  EXPECT_EQ(j.at("policy").at("num_pfus").as_int(), 2);
  EXPECT_DOUBLE_EQ(j.at("policy").at("time_threshold").as_double(), 0.005);
  EXPECT_EQ(j.at("machine").at("pfu").at("reconfig_latency").as_int(), 10);
}

}  // namespace
}  // namespace t1000
