// effective_machine() (uarch/timing.hpp): a PFU bank that can hold every
// configuration of the table replays exactly as the unlimited bank, so the
// harness may share one replay between them. Checked here on the paper
// workloads' own selections, observed, against the machine as given.
#include <gtest/gtest.h>

#include <string>

#include "harness/experiment.hpp"
#include "harness/serialize.hpp"
#include "uarch/timing.hpp"
#include "workloads/workload.hpp"

namespace t1000 {
namespace {

struct Observed {
  std::string stats;
  std::string stalls;
};

Observed observed_replay(const WorkloadExperiment::PreparedView& view,
                         const MachineConfig& machine) {
  SimObservation observation;
  const SimStats stats = simulate({.program = view.program,
                                   .ext_table = view.table,
                                   .trace = view.trace,
                                   .machine = machine,
                                   .observation = &observation});
  return {to_json(stats).dump(), to_json(observation.stalls).dump()};
}

TEST(EffectiveMachine, FittingBankReplaysAsUnlimitedOnEveryPaperWorkload) {
  int fitted = 0;
  for (const Workload& workload : all_workloads()) {
    const WorkloadExperiment experiment(workload);
    for (const int pfus : {4, 8, PfuConfig::kUnlimited}) {
      const WorkloadExperiment::PreparedView view =
          experiment.prepared(selective_spec(workload.name, "", pfus, 10));
      for (const int latency : {0, 500}) {
        for (const bool multi_cycle : {false, true}) {
          MachineConfig machine = pfu_machine(pfus, latency);
          machine.pfu.multi_cycle_ext = multi_cycle;
          const MachineConfig effective = effective_machine(machine, view.table);
          const std::string context =
              workload.name + " pfus " + std::to_string(pfus) + " latency " +
              std::to_string(latency) + (multi_cycle ? " multi-cycle" : "");
          // Only the PFU count may change, and only to unlimited.
          MachineConfig back = effective;
          back.pfu.count = machine.pfu.count;
          EXPECT_EQ(to_json(back).dump(), to_json(machine).dump()) << context;
          if (effective.pfu.count == machine.pfu.count) continue;
          EXPECT_EQ(effective.pfu.count, PfuConfig::kUnlimited) << context;
          EXPECT_LE(view.table->size(), pfus) << context;
          ++fitted;
          const Observed want = observed_replay(view, machine);
          const Observed got = observed_replay(view, effective);
          EXPECT_EQ(got.stats, want.stats) << context;
          EXPECT_EQ(got.stalls, want.stalls) << context;
        }
      }
    }
  }
  // Selection never picks more configurations than the bank it compiles
  // for, so every 4- and 8-PFU case fits: 8 workloads x 2 banks x 4.
  EXPECT_EQ(fitted, 64);
}

TEST(EffectiveMachine, BankSmallerThanTheTableIsLeftAsGiven) {
  const WorkloadExperiment experiment(*find_workload("gsm_enc"));
  const WorkloadExperiment::PreparedView view = experiment.prepared(
      selective_spec("gsm_enc", "", PfuConfig::kUnlimited, 10));
  ASSERT_EQ(view.table->size(), 6);
  const MachineConfig machine = pfu_machine(4, 10);
  EXPECT_EQ(to_json(effective_machine(machine, view.table)).dump(),
            to_json(machine).dump());
  // Six units hold it; no units, or an unlimited bank, stay as they are.
  EXPECT_EQ(effective_machine(pfu_machine(6, 10), view.table).pfu.count,
            PfuConfig::kUnlimited);
  EXPECT_EQ(effective_machine(pfu_machine(0, 10), view.table).pfu.count, 0);
  EXPECT_EQ(effective_machine(pfu_machine(PfuConfig::kUnlimited, 10),
                              view.table)
                .pfu.count,
            PfuConfig::kUnlimited);
}

TEST(EffectiveMachine, InvalidMachineFailsAsItself) {
  // A count past the validated range must still be refused by name, not
  // turned into a valid unlimited bank.
  MachineConfig machine = pfu_machine(1 << 30, 10);
  ASSERT_FALSE(validate(machine).empty());
  EXPECT_EQ(effective_machine(machine, nullptr).pfu.count, 1 << 30);
}

}  // namespace
}  // namespace t1000
