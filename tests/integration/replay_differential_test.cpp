// The replay-equivalence proof behind the trace-sharing engine.
//
// WorkloadExperiment::run() times every spec by replaying a recorded
// committed trace (sim/trace.hpp) instead of dragging the functional
// Executor through the pipeline. That is only sound if replay is
// *cycle-exact*: for every workload, selector, and machine configuration,
// the replayed run must produce byte-identical SimStats to a direct
// execution-driven simulation of the same rewritten program. This suite is
// that proof, over every registered workload (paper suite + extended
// suite), all three selectors, and a deliberately hostile set of machine
// configurations: PFU counts from 2 to unlimited, reconfiguration
// latencies from free to punitive, shrunken cache/TLB geometries, a real
// (mispredicting) branch predictor, multi-cycle extended instructions, a
// narrow machine with tight RUU/MSHR limits, and a wide one whose
// 100-entry window does not fill a power-of-two ring.
//
// Direct and replayed runs share one pipeline, so a scheduler bug would
// move both sides alike. Two oracle fixtures under golden/ pin observed
// replays absolutely: replay_oracle.txt every case of the sweep above, and
// replay_mshr_oracle.txt the baseline and selective runs on machines whose
// MSHR cap, not the window, bounds memory parallelism. Regenerate one only
// for a deliberate timing-model change, by running this binary directly
// (its instances rewrite the one file in turn, so not under a parallel
// ctest):
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
// `oracle` against its observed replays.
void check_oracle(const Oracle& oracle, const Workload& w,
                  WorkloadExperiment& exp) {
  const bool regen = std::getenv("T1000_REGEN_GOLDEN") != nullptr;
  std::map<std::string, std::string> cases = read_oracle(oracle);

  for (const Selector selector : oracle.selectors) {
    for (const NamedMachine& nm : oracle.machines()) {
      const RunSpec spec = spec_for(w, selector, nm);
      const WorkloadExperiment::PreparedView view = exp.prepared(spec);
      ASSERT_NE(view.trace, nullptr);
      SimObservation obs;
      const SimStats stats = simulate(
          {.program = view.program, .ext_table = view.table,
           .trace = view.trace, .machine = spec.machine,
           .max_cycles = spec.max_cycles, .observation = &obs});
      const std::string digest =
          std::to_string(stats.cycles) + " " +
          to_hex(fnv1a64(to_json(stats).dump() + to_json(obs.stalls).dump()));
      const std::string key = case_key(w, selector, nm);
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

TEST_P(ReplayDifferential, ReplayMatchesDirectSimulationByteForByte) {
  const Workload& w = every_workload()[GetParam()];
  WorkloadExperiment& exp = experiment(GetParam());

  for (const Selector selector :
       {Selector::kNone, Selector::kGreedy, Selector::kSelective}) {
    for (const NamedMachine& nm : machines()) {
      const RunSpec spec = spec_for(w, selector, nm);
      const WorkloadExperiment::PreparedView view = exp.prepared(spec);
      ASSERT_NE(view.program, nullptr);
      ASSERT_NE(view.trace, nullptr);

      // The replay-backed engine path...
      const RunOutcome replayed = exp.run(spec);
      // ...versus a from-scratch execution-driven simulation of the same
      // (rewritten) program under the same machine.
      const SimStats direct =
          simulate({.program = view.program, .ext_table = view.table, .machine = spec.machine, .max_cycles = spec.max_cycles});

      EXPECT_EQ(to_json(direct).dump(), to_json(replayed.stats).dump())
          << w.name << " / " << selector_name(selector) << " / " << nm.name;
      EXPECT_EQ(replayed.trace_steps, view.trace->size());
      EXPECT_EQ(replayed.trace_hash, view.trace->content_hash());
      EXPECT_EQ(replayed.checksum, view.trace->checksum());
    }
  }
}

TEST_P(ReplayDifferential, ObservedReplayMatchesDirectStallBreakdown) {
  // The observability layer must be replay-exact too: the engine times
  // every spec via replay, so RunSpec::observe is only trustworthy if the
  // replayed stall attribution is identical to a direct simulation's. A
  // representative machine subset keeps the sweep affordable while still
  // covering a real predictor and tight RUU/MSHR limits.
  const Workload& w = every_workload()[GetParam()];
  WorkloadExperiment& exp = experiment(GetParam());

  const auto covered = [](const std::string& name) {
    return name == "2pfu_lat10" || name == "bimodal" ||
           name == "narrow_ruu16_mshr2";
  };
  for (const Selector selector :
       {Selector::kNone, Selector::kGreedy, Selector::kSelective}) {
    for (const NamedMachine& nm : machines()) {
      if (!covered(nm.name)) continue;
      const RunSpec spec = spec_for(w, selector, nm);
      const WorkloadExperiment::PreparedView view = exp.prepared(spec);
      ASSERT_NE(view.program, nullptr);
      ASSERT_NE(view.trace, nullptr);

      SimObservation direct_obs;
      const SimStats direct = simulate({.program = view.program, .ext_table = view.table, .machine = spec.machine, .max_cycles = spec.max_cycles, .observation = &direct_obs});
      // The accounting invariant: every non-committing cycle is charged to
      // exactly one cause, on every workload and selector.
      EXPECT_EQ(direct_obs.stalls.cycles, direct.cycles)
          << w.name << " / " << selector_name(selector) << " / " << nm.name;
      EXPECT_EQ(direct_obs.stalls.cause_cycles(),
                direct_obs.stalls.stall_cycles())
          << w.name << " / " << selector_name(selector) << " / " << nm.name;

      // Observation must be invisible to the statistics...
      const SimStats plain =
          simulate({.program = view.program, .ext_table = view.table, .machine = spec.machine, .max_cycles = spec.max_cycles});
      EXPECT_EQ(to_json(plain).dump(), to_json(direct).dump())
          << w.name << " / " << selector_name(selector) << " / " << nm.name;

      // ...and the replay path must attribute byte-identically.
      SimObservation replay_obs;
      const SimStats replayed =
          simulate({.program = view.program, .ext_table = view.table, .trace = view.trace, .machine = spec.machine, .max_cycles = spec.max_cycles, .observation = &replay_obs});
      EXPECT_EQ(to_json(direct).dump(), to_json(replayed).dump())
          << w.name << " / " << selector_name(selector) << " / " << nm.name;
      EXPECT_EQ(to_json(direct_obs.stalls).dump(),
                to_json(replay_obs.stalls).dump())
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
  // succeeds exactly when max_cycles >= C - 1, on both step sources,
  // observed or not.
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
    for (const bool replay : {false, true}) {
      for (const bool observed : {false, true}) {
        for (const std::uint64_t bound :
             {c - 2, c - 1, c, c / 2, std::uint64_t{501},
              std::uint64_t{100}}) {
          SimObservation obs;
          const SimRequest request{
              .program = view.program, .ext_table = view.table,
              .trace = replay ? view.trace : nullptr, .machine = spec.machine,
              .max_cycles = bound, .observation = observed ? &obs : nullptr};
          const std::string tag =
              run.machine.name + (replay ? " replay" : " direct") +
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
  // through their own shape-sensitive analysis and produce MIMO EXTs; the
  // replay engine must stay cycle-exact for them too, and the selections
  // must pass the full static battery (translation proof included) before
  // they are timed.
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
      const RunOutcome replayed = exp.run(spec);
      const SimStats direct =
          simulate({.program = view.program, .ext_table = view.table, .machine = spec.machine, .max_cycles = spec.max_cycles});
      EXPECT_EQ(to_json(direct).dump(), to_json(replayed.stats).dump()) << tag;
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
