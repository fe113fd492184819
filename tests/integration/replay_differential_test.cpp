// The replay suite behind the trace-sharing engine.
//
// Every timing run replays a recorded committed trace (sim/trace.hpp):
// WorkloadExperiment::run() replays the preparation's trace, and
// simulate() given no trace records one first. Two oracle fixtures under
// golden/ pin those replays absolutely, over every registered workload
// (paper suite + extended suite), all three selectors, and a deliberately
// hostile set of machine configurations: PFU counts from 2 to unlimited,
// reconfiguration latencies from free to punitive, shrunken cache/TLB
// geometries, a real (mispredicting) branch predictor, multi-cycle
// extended instructions, a narrow machine with tight RUU/MSHR limits, and
// a wide one whose 100-entry window does not fill a power-of-two ring.
// replay_oracle.txt holds every case of that sweep and
// replay_mshr_oracle.txt the baseline and selective runs on machines
// whose MSHR cap, not the window, bounds memory parallelism. Both were
// checked once, case by case, against the execution-driven pipeline that
// recording replaced. Each case also runs unobserved, which must not
// change its statistics, and its stall breakdown must charge every
// non-committing cycle exactly once.
//
// Regenerate a fixture only for a deliberate timing-model change, by
// running this binary directly (its instances rewrite the one file in
// turn, so not under a parallel ctest):
//
//   T1000_REGEN_GOLDEN=1 ./replay_differential_test
//       --gtest_filter='*ObservedReplayMatchesOracleFixture*'
//   T1000_REGEN_GOLDEN=1 ./replay_differential_test
//       --gtest_filter='*MshrCappedReplayMatchesOracleFixture*'
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/json.hpp"
#include "harness/serialize.hpp"
#include "support/trace_lockstep.hpp"
#include "uarch/timing.hpp"

namespace t1000 {
namespace {

struct NamedMachine {
  std::string name;
  MachineConfig machine;
};

// The sweep axes. Every configuration carries PFUs so the rewritten
// (EXT-bearing) programs are legal everywhere.
const std::vector<NamedMachine>& machines() {
  static const std::vector<NamedMachine> configs = [] {
    std::vector<NamedMachine> out;
    out.push_back({"2pfu_lat10", pfu_machine(2, 10)});
    out.push_back({"4pfu_lat10", pfu_machine(4, 10)});
    out.push_back({"unlimited_lat0", pfu_machine(PfuConfig::kUnlimited, 0)});
    out.push_back({"2pfu_lat0", pfu_machine(2, 0)});
    out.push_back({"2pfu_lat100", pfu_machine(2, 100)});
    out.push_back({"2pfu_lat500", pfu_machine(2, 500)});

    MachineConfig small = pfu_machine(2, 10);
    small.il1 = {.size_bytes = 4 * 1024, .line_bytes = 16, .assoc = 1,
                 .hit_latency = 1};
    small.dl1 = {.size_bytes = 4 * 1024, .line_bytes = 16, .assoc = 2,
                 .hit_latency = 1};
    small.l2 = {.size_bytes = 64 * 1024, .line_bytes = 32, .assoc = 2,
                .hit_latency = 8};
    small.memory_latency = 40;
    small.itlb.entries = 8;
    small.dtlb.entries = 8;
    out.push_back({"small_caches", small});

    MachineConfig bimodal = pfu_machine(2, 10);
    bimodal.branch.kind = BranchPredictorKind::kBimodal;
    out.push_back({"bimodal", bimodal});

    MachineConfig deep = pfu_machine(4, 10);
    deep.pfu.multi_cycle_ext = true;
    deep.pfu.levels_per_cycle = 1;
    out.push_back({"multi_cycle_ext", deep});

    MachineConfig narrow = pfu_machine(2, 10);
    narrow.fetch_width = 2;
    narrow.decode_width = 2;
    narrow.issue_width = 2;
    narrow.commit_width = 2;
    narrow.ruu_size = 16;
    narrow.fetch_queue_size = 4;
    narrow.int_alus = 2;
    narrow.mem_ports = 1;
    narrow.max_outstanding_misses = 2;
    out.push_back({"narrow_ruu16_mshr2", narrow});

    MachineConfig wide = pfu_machine(2, 10);
    wide.fetch_width = 8;
    wide.decode_width = 8;
    wide.issue_width = 8;
    wide.commit_width = 8;
    wide.ruu_size = 100;
    wide.fetch_queue_size = 32;
    wide.int_alus = 6;
    wide.mem_ports = 3;
    wide.max_outstanding_misses = 4;
    out.push_back({"wide_ruu100", wide});
    return out;
  }();
  return configs;
}

// Windows of 64 to 1024 entries behind one or two MSHRs, with memory 200
// to 5000 cycles away: loads and stores queue for an MSHR while the window
// fills behind them.
const std::vector<NamedMachine>& mshr_machines() {
  static const std::vector<NamedMachine> configs = [] {
    const auto capped = [](int ruu, int mshrs, int memory_latency) {
      MachineConfig m = pfu_machine(2, 10);
      m.ruu_size = ruu;
      m.max_outstanding_misses = mshrs;
      m.memory_latency = memory_latency;
      return m;
    };
    return std::vector<NamedMachine>{
        {"ruu64_mshr1_mem200", capped(64, 1, 200)},
        {"ruu1024_mshr2_mem1000", capped(1024, 2, 1000)},
        {"ruu256_mshr1_mem5000", capped(256, 1, 5000)}};
  }();
  return configs;
}

const std::vector<Workload>& every_workload() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> out = all_workloads();
    const std::vector<Workload>& extra = extended_workloads();
    out.insert(out.end(), extra.begin(), extra.end());
    return out;
  }();
  return all;
}

RunSpec spec_for(const Workload& w, Selector selector,
                 const NamedMachine& nm) {
  RunSpec spec;
  spec.workload = w.name;
  spec.label = nm.name;
  spec.selector = selector;
  spec.machine = nm.machine;
  if (selector == Selector::kSelective) {
    // The selection must know the PFU budget it compiles for (the same
    // invariant selective_spec() maintains).
    spec.policy.num_pfus = nm.machine.pfu.count == PfuConfig::kUnlimited
                               ? kUnlimitedPfus
                               : nm.machine.pfu.count;
  }
  return spec;
}

// An oracle fixture: one line per (workload, selector, machine) case,
// "<workload>/<selector>/<machine> <cycles> <digest>", the digest being
// FNV-1a over the observed replay's SimStats and StallBreakdown JSON.
struct Oracle {
  std::string file;  // under golden/
  const std::vector<NamedMachine>& (*machines)();
  std::vector<Selector> selectors;

  std::string path() const {
    return std::string(T1000_GOLDEN_DIR) + "/" + file;
  }
};

const Oracle kSweepOracle{"replay_oracle.txt", machines,
                          {Selector::kNone, Selector::kGreedy,
                           Selector::kSelective}};
const Oracle kMshrOracle{"replay_mshr_oracle.txt", mshr_machines,
                         {Selector::kNone, Selector::kSelective}};

std::string case_key(const Workload& w, Selector selector,
                     const NamedMachine& nm) {
  return w.name + "/" + std::string(selector_name(selector)) + "/" + nm.name;
}

std::map<std::string, std::string> read_oracle(const Oracle& oracle) {
  std::map<std::string, std::string> cases;
  std::ifstream is(oracle.path());
  std::string line;
  while (std::getline(is, line)) {
    const std::size_t space = line.find(' ');
    if (space != std::string::npos) {
      cases[line.substr(0, space)] = line.substr(space + 1);
    }
  }
  return cases;
}

// Writes the cases in sweep order, so a regeneration diff is reviewable.
void write_oracle(const Oracle& oracle,
                  const std::map<std::string, std::string>& cases) {
  std::ofstream os(oracle.path(), std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(os.is_open()) << "cannot write " << oracle.path();
  for (const Workload& w : every_workload()) {
    for (const Selector selector : oracle.selectors) {
      for (const NamedMachine& nm : oracle.machines()) {
        const auto it = cases.find(case_key(w, selector, nm));
        if (it != cases.end()) os << it->first << ' ' << it->second << '\n';
      }
    }
  }
}

// Checks (or, under T1000_REGEN_GOLDEN, rewrites) the cases of `w` in
// `oracle` against its observed replays. Each case also runs unobserved
// through the engine, which must give the same statistics.
void check_oracle(const Oracle& oracle, const Workload& w,
                  WorkloadExperiment& exp) {
  const bool regen = std::getenv("T1000_REGEN_GOLDEN") != nullptr;
  std::map<std::string, std::string> cases = read_oracle(oracle);

  for (const Selector selector : oracle.selectors) {
    for (const NamedMachine& nm : oracle.machines()) {
      const RunSpec spec = spec_for(w, selector, nm);
      const WorkloadExperiment::PreparedView view = exp.prepared(spec);
      ASSERT_NE(view.trace, nullptr);
      const std::string key = case_key(w, selector, nm);
      SimObservation obs;
      const SimStats stats = simulate(
          {.program = view.program, .ext_table = view.table,
           .trace = view.trace, .machine = spec.machine,
           .max_cycles = spec.max_cycles, .observation = &obs});
      // Every non-committing cycle is charged to exactly one cause.
      EXPECT_EQ(obs.stalls.cycles, stats.cycles) << key;
      EXPECT_EQ(obs.stalls.cause_cycles(), obs.stalls.stall_cycles()) << key;
      // Observation is invisible to the statistics.
      const RunOutcome plain = exp.run(spec);
      EXPECT_EQ(to_json(plain.stats).dump(), to_json(stats).dump()) << key;
      EXPECT_EQ(plain.trace_steps, view.trace->size()) << key;
      EXPECT_EQ(plain.trace_hash, view.trace->content_hash()) << key;
      EXPECT_EQ(plain.checksum, view.trace->checksum()) << key;
      const std::string digest =
          std::to_string(stats.cycles) + " " +
          to_hex(fnv1a64(to_json(stats).dump() + to_json(obs.stalls).dump()));
      if (regen) {
        cases[key] = digest;
        continue;
      }
      const auto it = cases.find(key);
      ASSERT_NE(it, cases.end())
          << "missing oracle case " << key << " in " << oracle.path()
          << " — regenerate with T1000_REGEN_GOLDEN=1 (see file comment)";
      EXPECT_EQ(it->second, digest)
          << key << ": observed replay drifted from the oracle fixture";
    }
  }
  if (regen) write_oracle(oracle, cases);
}

class ReplayDifferential : public ::testing::TestWithParam<std::size_t> {
 protected:
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

// simulate() given no trace records the program itself, with a step bound
// of (max_cycles + 1) x commit_width, then replays it: one machine of each
// commit width in the sweep.
bool one_per_commit_width(const NamedMachine& nm) {
  return nm.name == "2pfu_lat10" || nm.name == "narrow_ruu16_mshr2" ||
         nm.name == "wide_ruu100";
}

TEST_P(ReplayDifferential, ReplayMatchesDirectSimulationByteForByte) {
  // A direct simulate() call, given no trace, must time the rewritten
  // program exactly as the engine times it from the preparation's trace.
  const Workload& w = every_workload()[GetParam()];
  WorkloadExperiment& exp = experiment(GetParam());

  for (const Selector selector :
       {Selector::kNone, Selector::kGreedy, Selector::kSelective}) {
    for (const NamedMachine& nm : machines()) {
      if (!one_per_commit_width(nm)) continue;
      const RunSpec spec = spec_for(w, selector, nm);
      const WorkloadExperiment::PreparedView view = exp.prepared(spec);
      ASSERT_NE(view.program, nullptr);
      const SimStats direct =
          simulate({.program = view.program, .ext_table = view.table,
                    .machine = spec.machine, .max_cycles = spec.max_cycles});
      EXPECT_EQ(to_json(direct).dump(), to_json(exp.run(spec).stats).dump())
          << w.name << " / " << selector_name(selector) << " / " << nm.name;
    }
  }
}

TEST_P(ReplayDifferential, ObservedReplayMatchesDirectStallBreakdown) {
  // The same direct call, observed: its observation reaches the replay of
  // the trace it records and attributes every cycle as the engine's
  // observed run does.
  const Workload& w = every_workload()[GetParam()];
  WorkloadExperiment& exp = experiment(GetParam());

  for (const Selector selector :
       {Selector::kNone, Selector::kGreedy, Selector::kSelective}) {
    for (const NamedMachine& nm : machines()) {
      if (!one_per_commit_width(nm)) continue;
      RunSpec spec = spec_for(w, selector, nm);
      spec.observe = true;
      const WorkloadExperiment::PreparedView view = exp.prepared(spec);
      ASSERT_NE(view.program, nullptr);
      SimObservation direct_obs;
      const SimStats direct = simulate(
          {.program = view.program, .ext_table = view.table,
           .machine = spec.machine, .max_cycles = spec.max_cycles,
           .observation = &direct_obs});
      const RunOutcome replayed = exp.run(spec);
      ASSERT_TRUE(replayed.observed);
      EXPECT_EQ(to_json(direct).dump(), to_json(replayed.stats).dump())
          << w.name << " / " << selector_name(selector) << " / " << nm.name;
      EXPECT_EQ(to_json(direct_obs.stalls).dump(),
                to_json(replayed.stalls).dump())
          << w.name << " / " << selector_name(selector) << " / " << nm.name;
    }
  }
}

TEST_P(ReplayDifferential, ObservedReplayMatchesOracleFixture) {
  // The absolute pin: every case's observed replay, statistics and stall
  // breakdown, against the checked-in digest.
  check_oracle(kSweepOracle, every_workload()[GetParam()],
               experiment(GetParam()));
}

TEST_P(ReplayDifferential, MshrCappedReplayMatchesOracleFixture) {
  // The same pin on MSHR-bound machines, where most cycles pass with a
  // load or store waiting for a miss to drain.
  check_oracle(kMshrOracle, every_workload()[GetParam()],
               experiment(GetParam()));
}

TEST(ReplayCycleBound, RunSucceedsExactlyFromOneBelowItsCycleCount) {
  // Two gsm_dec runs that spend most of their cycles in spans in which
  // nothing happens, so most of these bounds fall inside one: greedy
  // selection on two PFUs at 500 cycles per reconfiguration waits on
  // reconfigurations, and the baseline on a 64-entry window behind one
  // MSHR, 100000 cycles from memory, waits on misses. A run of C cycles
  // simulates cycles 0 .. C-1 and checks the bound at the start of each: it
  // succeeds exactly when max_cycles >= C - 1, observed or not, given the
  // trace or recording its own. Recording bounds the steps by
  // (max_cycles + 1) x commit_width, which refuses no run inside the cycle
  // bound, and ends the runs far outside it (bounds 100 and 501) itself.
  MachineConfig probe;
  probe.max_outstanding_misses = 1;
  probe.memory_latency = 100000;
  const struct {
    Selector selector;
    NamedMachine machine;
    std::uint64_t cycles;
  } runs[] = {
      {Selector::kGreedy, {"2pfu_lat500", pfu_machine(2, 500)}, 7221409},
      {Selector::kNone, {"ruu64_mshr1_mem100000", probe}, 2274178},
  };
  const Workload& w = *find_workload("gsm_dec");
  WorkloadExperiment exp(w);
  for (const auto& run : runs) {
    const RunSpec spec = spec_for(w, run.selector, run.machine);
    const WorkloadExperiment::PreparedView view = exp.prepared(spec);
    ASSERT_NE(view.trace, nullptr);
    const std::uint64_t c = run.cycles;
    for (const bool given : {false, true}) {
      for (const bool observed : {false, true}) {
        for (const std::uint64_t bound :
             {c - 2, c - 1, c, c / 2, std::uint64_t{501},
              std::uint64_t{100}}) {
          SimObservation obs;
          const SimRequest request{
              .program = view.program, .ext_table = view.table,
              .trace = given ? view.trace : nullptr, .machine = spec.machine,
              .max_cycles = bound, .observation = observed ? &obs : nullptr};
          const std::string tag =
              run.machine.name + (given ? " given" : " recorded") +
              (observed ? " observed" : " plain") + " bound " +
              std::to_string(bound);
          if (bound + 1 >= c) {
            EXPECT_EQ(simulate(request).cycles, c) << tag;
          } else {
            EXPECT_THROW(simulate(request), SimError) << tag;
          }
        }
      }
    }
  }
}

TEST_P(ReplayDifferential, BatchedReplayMatchesSequentialRuns) {
  // The config-parallel engine path: every machine configuration that
  // shares a preparation is timed as one lane of a single batched sweep.
  // Batching is only sound if each lane's outcome — statistics and, for
  // observed lanes, the stall breakdown — is byte-identical to the run
  // the sequential path would have produced.
  const Workload& w = every_workload()[GetParam()];
  WorkloadExperiment& exp = experiment(GetParam());

  for (const Selector selector :
       {Selector::kNone, Selector::kGreedy, Selector::kSelective}) {
    std::vector<RunSpec> specs;
    for (const NamedMachine& nm : machines()) {
      // Selective lanes must share the selection policy (the batch-identity
      // rule): restrict that sweep to the 2-PFU machines.
      if (selector == Selector::kSelective && nm.machine.pfu.count != 2) {
        continue;
      }
      RunSpec spec = spec_for(w, selector, nm);
      spec.observe = specs.size() % 2 == 1;  // mix observed and plain lanes
      specs.push_back(spec);
    }
    ASSERT_GT(specs.size(), 1u);

    const std::vector<WorkloadExperiment::BatchRunOutcome> lanes =
        exp.run_batch(specs);
    ASSERT_EQ(lanes.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      ASSERT_EQ(lanes[i].error, nullptr)
          << w.name << " / " << selector_name(selector) << " / "
          << specs[i].label;
      const RunOutcome single = exp.run(specs[i]);
      EXPECT_EQ(to_json(lanes[i].outcome.stats).dump(),
                to_json(single.stats).dump())
          << w.name << " / " << selector_name(selector) << " / "
          << specs[i].label;
      EXPECT_EQ(lanes[i].outcome.observed, single.observed);
      if (single.observed) {
        EXPECT_EQ(to_json(lanes[i].outcome.stalls).dump(),
                  to_json(single.stalls).dump())
            << w.name << " / " << selector_name(selector) << " / "
            << specs[i].label;
      }
    }
  }
}

TEST_P(ReplayDifferential, WidenedShapesReplayByteForByte) {
  // Widened candidate shapes (ExtractPolicy::max_inputs/max_outputs) route
  // through their own shape-sensitive analysis and produce MIMO EXTs. The
  // selections must pass the full static battery (translation proof
  // included) before they are timed, and the trace the engine replays must
  // follow the reference interpreter step by step: no other test walks
  // these rewrites that way.
  const Workload& w = every_workload()[GetParam()];
  WorkloadExperiment& exp = experiment(GetParam());

  const int shapes[][2] = {{4, 1}, {4, 2}};
  for (const auto& shape : shapes) {
    for (const Selector selector : {Selector::kGreedy, Selector::kSelective}) {
      RunSpec spec = spec_for(w, selector, machines()[0]);
      spec.policy.extract.max_inputs = shape[0];
      spec.policy.extract.max_outputs = shape[1];
      spec.verify = true;
      const std::string tag = w.name + " / " +
                              std::string(selector_name(selector)) + " / " +
                              std::to_string(shape[0]) + "in" +
                              std::to_string(shape[1]) + "out";

      const VerifyReport& report = exp.verify(spec);
      EXPECT_TRUE(report.ok()) << tag << ": " << report.summary();

      const WorkloadExperiment::PreparedView view = exp.prepared(spec);
      ASSERT_NE(view.program, nullptr);
      ASSERT_NE(view.trace, nullptr);
      fuzz::expect_cursor_matches_reference(*view.program, view.table,
                                            *view.trace, tag);
      const RunOutcome replayed = exp.run(spec);
      EXPECT_EQ(replayed.trace_hash, view.trace->content_hash()) << tag;
      EXPECT_EQ(replayed.checksum, view.trace->checksum()) << tag;
    }
  }
}

TEST_P(ReplayDifferential, SharedSelectorsReuseOneTraceAcrossMachines) {
  // Baseline and greedy preparations do not depend on the machine, so
  // every machine configuration must replay the very same trace object.
  const Workload& w = every_workload()[GetParam()];
  WorkloadExperiment& exp = experiment(GetParam());
  for (const Selector selector : {Selector::kNone, Selector::kGreedy}) {
    const CommittedTrace* first = nullptr;
    for (const NamedMachine& nm : machines()) {
      const WorkloadExperiment::PreparedView view =
          exp.prepared(spec_for(w, selector, nm));
      if (first == nullptr) {
        first = view.trace;
      } else {
        EXPECT_EQ(view.trace, first)
            << w.name << " / " << selector_name(selector) << " / " << nm.name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, ReplayDifferential,
    ::testing::Range<std::size_t>(0, every_workload().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return every_workload()[info.param].name;
    });

}  // namespace
}  // namespace t1000
