// OptionParser and parse_bench_options input validation. The rejection
// paths exit(2), so they run as gtest death tests.
#include "harness/options.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "harness/grid.hpp"

namespace t1000 {
namespace {

// argv builder: OptionParser::parse wants mutable char**.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    for (std::string& a : storage_) ptrs_.push_back(a.data());
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> ptrs_;
};

TEST(Options, ParsesIntsStringsAndFlags) {
  long n = 0;
  std::string s;
  bool flag = false;
  OptionParser parser("prog", "");
  parser.add_int("--n", "N", "", &n);
  parser.add_string("--s", "S", "", &s);
  parser.add_flag("--flag", "", &flag);
  Argv args({"prog", "--n", "42", "--s", "hello", "--flag"});
  parser.parse(args.argc(), args.argv());
  EXPECT_EQ(n, 42);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(flag);
}

TEST(Options, NegativeAndHexIntsParse) {
  long n = 0;
  OptionParser parser("prog", "");
  parser.add_int("--n", "N", "", &n);
  Argv neg({"prog", "--n", "-7"});
  parser.parse(neg.argc(), neg.argv());
  EXPECT_EQ(n, -7);
  Argv hex({"prog", "--n", "0x10"});
  parser.parse(hex.argc(), hex.argv());
  EXPECT_EQ(n, 16);
}

using OptionsDeathTest = ::testing::Test;

TEST(OptionsDeathTest, OverflowingIntIsRejectedNotClamped) {
  long n = 0;
  OptionParser parser("prog", "");
  parser.add_int("--n", "N", "", &n);
  // Plain strtol clamps this to LONG_MAX and reports success unless errno
  // (ERANGE) is checked — the parser must reject it.
  Argv args({"prog", "--n", "999999999999999999999999999999"});
  EXPECT_EXIT(parser.parse(args.argc(), args.argv()),
              ::testing::ExitedWithCode(2), "expected an integer");
}

TEST(OptionsDeathTest, TrailingJunkIsRejected) {
  long n = 0;
  OptionParser parser("prog", "");
  parser.add_int("--n", "N", "", &n);
  Argv args({"prog", "--n", "12abc"});
  EXPECT_EXIT(parser.parse(args.argc(), args.argv()),
              ::testing::ExitedWithCode(2), "bad value '12abc'");
}

TEST(OptionsDeathTest, RangeCheckedIntReportsItsBounds) {
  long n = 0;
  OptionParser parser("prog", "");
  parser.add_int("--n", "N", "", &n, 1, 64);
  Argv args({"prog", "--n", "65"});
  EXPECT_EXIT(parser.parse(args.argc(), args.argv()),
              ::testing::ExitedWithCode(2),
              "expected an integer in \\[1, 64\\]");
}

TEST(Options, RangeCheckedIntAcceptsItsBounds) {
  long n = 0;
  OptionParser parser("prog", "");
  parser.add_int("--n", "N", "", &n, 1, 64);
  Argv lo({"prog", "--n", "1"});
  parser.parse(lo.argc(), lo.argv());
  EXPECT_EQ(n, 1);
  Argv hi({"prog", "--n", "64"});
  parser.parse(hi.argc(), hi.argv());
  EXPECT_EQ(n, 64);
}

TEST(OptionsDeathTest, BenchRejectsNegativeJobs) {
  Argv args({"bench", "--jobs", "-3"});
  EXPECT_EXIT(parse_bench_options(args.argc(), args.argv(), "bench", ""),
              ::testing::ExitedWithCode(2), "--jobs");
}

TEST(OptionsDeathTest, BenchRejectsAbsurdJobs) {
  Argv args({"bench", "--jobs", "99999999999"});
  EXPECT_EXIT(parse_bench_options(args.argc(), args.argv(), "bench", ""),
              ::testing::ExitedWithCode(2), "--jobs");
}

TEST(OptionsDeathTest, MalformedCacheBudgetEnvironmentIsRefused) {
  // "10G" and "-5" used to read as 0: an unbounded cache, silently.
  for (const char* bad : {"10G", "-5", "99999999999999999999999"}) {
    setenv("T1000_CACHE_BUDGET_BYTES", bad, 1);
    Argv args({"bench"});
    EXPECT_EXIT(parse_bench_options(args.argc(), args.argv(), "bench", ""),
                ::testing::ExitedWithCode(2), "T1000_CACHE_BUDGET_BYTES")
        << bad;
  }
  unsetenv("T1000_CACHE_BUDGET_BYTES");
}

TEST(Options, CacheEnvironmentSetsTheDefaults) {
  setenv("T1000_CACHE_DIR", "/tmp/t1000-options-test-cache", 1);
  setenv("T1000_CACHE_BUDGET_BYTES", "6000", 1);
  Argv args({"bench"});
  const BenchOptions env =
      parse_bench_options(args.argc(), args.argv(), "bench", "");
  EXPECT_EQ(env.grid.cache_dir, "/tmp/t1000-options-test-cache");
  EXPECT_EQ(env.grid.cache_budget_bytes, 6000u);
  // The flag still wins over the environment.
  Argv flag({"bench", "--cache-budget-bytes", "7000"});
  EXPECT_EQ(parse_bench_options(flag.argc(), flag.argv(), "bench", "")
                .grid.cache_budget_bytes,
            7000u);
  unsetenv("T1000_CACHE_DIR");
  unsetenv("T1000_CACHE_BUDGET_BYTES");
  const BenchOptions defaults =
      parse_bench_options(args.argc(), args.argv(), "bench", "");
  EXPECT_EQ(defaults.grid.cache_dir, ".t1000-cache");
  EXPECT_EQ(defaults.grid.cache_budget_bytes, 0u);
}

TEST(Options, BenchParsesFailureSemanticsFlags) {
  Argv args({"bench", "--jobs", "2", "--strict", "--keep-going",
             "--run-budget-ms", "125.5", "--no-cache"});
  const BenchOptions opts =
      parse_bench_options(args.argc(), args.argv(), "bench", "");
  EXPECT_EQ(opts.grid.jobs, 2);
  EXPECT_EQ(opts.grid.fail_limit, 1u);
  EXPECT_TRUE(opts.keep_going);
  EXPECT_DOUBLE_EQ(opts.grid.run_budget_ms, 125.5);
  EXPECT_TRUE(opts.grid.cache_dir.empty());
}

}  // namespace
}  // namespace t1000
