// Trace-driven timing simulator for the T1000 architecture.
//
// Models the paper's evaluation vehicle: a 4-wide out-of-order superscalar
// with Register-Update-Unit (RUU) scheduling [Sohi], split L1 caches over a
// unified L2, I/D TLBs, perfect branch prediction, and a bank of PFUs for
// extended instructions. The committed path comes from a trace the
// functional executor recorded (sim/trace.hpp): with perfect prediction
// the fetched and committed paths coincide, so no wrong-path modelling is
// needed (Section 3.1) and a recorded run replays cycle-exactly.
//
// Pipeline per cycle: commit <= W oldest completed entries; issue <= W
// ready entries oldest-first subject to FU availability (and, for EXT, the
// decode-time PFU reconfiguration check); dispatch <= W fetched
// instructions into the RUU with register renaming; fetch <= W
// instructions along the true path through the I-cache/I-TLB, stopping at
// taken branches and on I-cache miss stalls.
//
// Memory model: loads compute latency through DL1/L2/memory at issue;
// a load may not issue before every older overlapping store has completed
// (store-to-load forwarding then costs an L1 hit); disambiguation uses the
// oracle addresses from the functional trace, i.e. a perfect dependence
// predictor. Stores occupy a memory port and complete in the L1 hit time.
#pragma once

#include <cstdint>
#include <exception>
#include <string_view>
#include <vector>

#include "asmkit/program.hpp"
#include "isa/extdef.hpp"
#include "obs/trace_event.hpp"
#include "sim/trace.hpp"
#include "uarch/branch.hpp"
#include "uarch/cache.hpp"
#include "uarch/config.hpp"
#include "uarch/pfu.hpp"

namespace t1000 {

struct SimStats {
  std::uint64_t cycles = 0;
  std::uint64_t committed = 0;

  CacheStats il1;
  CacheStats dl1;
  CacheStats l2;
  CacheStats itlb;
  CacheStats dtlb;
  PfuStats pfu;
  BranchStats branch;

  double ipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(committed) / static_cast<double>(cycles);
  }
};

// --- Stall-cause attribution (observed runs) ---
//
// Every simulated cycle in which no instruction commits is charged to
// exactly one cause, classified at end of cycle from the state of the
// oldest uncommitted instruction (the RUU head — commit is in-order, so
// whatever blocks the head blocks the machine) or, when the window is
// empty, from the front end. The enumerator order is the serialization
// order; names via stall_cause_name().
enum class StallCause : int {
  kFetchBranch = 0,  // front end stopped at a taken branch / redirect
  kFetchMem,         // front end stalled on an I-cache / I-TLB miss
  kFrontend,         // fill bubble: head dispatched this cycle, or the
                     // window is empty while instructions are in fetch
  kRuuFull,          // window full behind a long-running head
  kMshrFull,         // head memory op blocked: no free miss slot
  kOperandWait,      // never charged: the head's producers and older
                     // stores have committed (kept for the ten-cause shape)
  kExtReconfig,      // head EXT waiting on its PFU reconfiguration
  kExecMem,          // head memory op in flight past the L1 hit time
  kExec,             // head executing a multi-cycle operation
  kDrain,            // window empty, program exhausted: trailing fetch
                     // latency draining the front end
};
inline constexpr int kNumStallCauses = 10;

// Stable snake_case name ("fetch_branch", ...), used by the breakdown
// JSON, the stall tables, and the results serialization.
std::string_view stall_cause_name(StallCause cause);

struct StallBreakdown {
  std::uint64_t cycles = 0;         // every simulated cycle
  std::uint64_t commit_cycles = 0;  // cycles that committed >= 1 instruction
  std::uint64_t causes[kNumStallCauses] = {};

  std::uint64_t stall_cycles() const { return cycles - commit_cycles; }
  // Invariant (pinned by tests): cause_cycles() == stall_cycles().
  std::uint64_t cause_cycles() const {
    std::uint64_t total = 0;
    for (const std::uint64_t c : causes) total += c;
    return total;
  }
  std::uint64_t of(StallCause cause) const {
    return causes[static_cast<int>(cause)];
  }
  // Element-wise accumulation (grid-level aggregation).
  void accumulate(const StallBreakdown& other);
};

// Observation sink for one timing run. Set `want_trace` before the run to
// additionally record per-instruction lifecycle slices and PFU
// reconfiguration slices into `trace` (stall attribution is always
// filled). Observation never changes SimStats — the observed and
// unobserved paths are held to byte-identical statistics by tests.
struct SimObservation {
  bool want_trace = false;   // in: record event slices too
  StallBreakdown stalls;     // out
  obs::TraceEventLog trace;  // out: filled when want_trace
};

// --- the SimRequest API ---
//
// One request struct describes any timing run; there is exactly one entry
// point per batch shape instead of positional overload families. The
// designated-initializer idiom reads as named arguments:
//
//   simulate({.program = &p, .machine = cfg});                 // records
//   simulate({.program = &p, .trace = &t, .machine = cfg});    // replays
//   simulate({.program = &p, .machine = cfg, .observation = &obs});
struct SimRequest {
  // The program to time (required). With a trace it must be the exact
  // program the trace was recorded from.
  const Program* program = nullptr;
  // EXT semantics; may be null when the program contains none. Executes
  // EXTs while recording and gives multi-cycle EXT latencies.
  const ExtInstTable* ext_table = nullptr;
  // The committed trace to replay. Recording pays the functional work
  // once, so one trace serves a whole grid of machine configurations.
  // When null, simulate() first records the whole run, with a step bound
  // of (max_cycles + 1) x commit_width (the most a run within max_cycles
  // can commit) capped at kDefaultStepBound (2^26, sim/trace.hpp), and
  // then replays it: the trace it holds meanwhile grows with the run.
  const CommittedTrace* trace = nullptr;
  MachineConfig machine;
  std::uint64_t max_cycles = 1ull << 32;  // SimError past this bound
  // Opts into the observability layer (stall-cause attribution, optional
  // event trace). When null — the default — the
  // pipeline is instantiated with the no-op observer and the observation
  // code is compiled out entirely: the disabled path costs nothing and
  // observation never changes SimStats (pinned by tests).
  SimObservation* observation = nullptr;
};

// The machine a replay of a program whose EXTs name configurations of
// `table` (null: none) behaves as: `machine` with pfu.count set to
// kUnlimited when it has at least one unit and at least as many units as
// the table has configurations, and otherwise `machine` itself. A machine
// that fails validate() is returned unchanged, so it fails as itself.
//
// Exact: such an LRU bank never evicts, so every reconfiguration starts at
// the requesting cycle and fills units 0, 1, 2... in the order an
// unlimited bank appends them. Every returned ready cycle, every listener
// event and the PfuStats are the same, and with them the SimStats and the
// stall breakdown. Replays keyed on the result share one timing run.
MachineConfig effective_machine(const MachineConfig& machine,
                                const ExtInstTable* table);

// Runs one timing simulation described by `request` and returns the
// statistics. Throws SimError if the request is malformed, the machine
// fails validate() (uarch/config.hpp), the program exceeds max_cycles (or,
// recording, the step bound), or the simulation misbehaves.
SimStats simulate(const SimRequest& request);

// Config-parallel batched replay: N machine configurations timed as lanes
// over one committed trace. The per-program decode table (sim/trace.hpp,
// DecodedTrace) is built once per call and every lane runs to completion
// through the single-replay pipeline on its own cursor over it. Each lane
// is an independent pipeline (its own caches, TLBs, predictor, PFU bank,
// RUU) — lane results are byte-identical to N sequential simulate() replay
// calls, in any lane order, which the batch differential tests pin.
struct BatchSimRequest {
  const Program* program = nullptr;        // required
  const ExtInstTable* ext_table = nullptr; // may be null
  const CommittedTrace* trace = nullptr;   // required; shared by all lanes
  // One lane per machine configuration to time. max_cycles and
  // observation are per-lane: observed and unobserved lanes mix freely.
  struct Lane {
    MachineConfig machine;
    std::uint64_t max_cycles = 1ull << 32;
    SimObservation* observation = nullptr;
  };
  std::vector<Lane> lanes;
};

// One lane's outcome. Lanes fail independently: a lane that exceeds its
// cycle bound (or otherwise throws) carries the exception here while the
// other lanes complete normally — the grid's per-run fault isolation
// passes straight through the batch.
struct BatchLaneResult {
  SimStats stats;            // valid when !error
  std::exception_ptr error;  // null on success
};

// Runs every lane of `request` and returns their results in lane order.
// Throws SimError only for a malformed request (missing program/trace);
// per-lane failures, including a lane machine that fails validate(), are
// reported in the corresponding BatchLaneResult.
std::vector<BatchLaneResult> simulate_replay_batch(
    const BatchSimRequest& request);

}  // namespace t1000
