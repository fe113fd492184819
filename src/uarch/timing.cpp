#include "uarch/timing.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "harness/json.hpp"
#include "hwcost/lut_model.hpp"
#include "isa/opcode.hpp"
#include "sim/executor.hpp"
#include "sim/trace.hpp"

namespace t1000 {

std::string_view stall_cause_name(StallCause cause) {
  switch (cause) {
    case StallCause::kFetchBranch: return "fetch_branch";
    case StallCause::kFetchMem: return "fetch_mem";
    case StallCause::kFrontend: return "frontend";
    case StallCause::kRuuFull: return "ruu_full";
    case StallCause::kMshrFull: return "mshr_full";
    case StallCause::kOperandWait: return "operand_wait";
    case StallCause::kExtReconfig: return "ext_reconfig";
    case StallCause::kExecMem: return "exec_mem";
    case StallCause::kExec: return "exec";
    case StallCause::kDrain: return "drain";
  }
  return "unknown";
}

void StallBreakdown::accumulate(const StallBreakdown& other) {
  cycles += other.cycles;
  commit_cycles += other.commit_cycles;
  for (int i = 0; i < kNumStallCauses; ++i) causes[i] += other.causes[i];
}

namespace {

constexpr std::uint64_t kNoDep = ~0ull;

// Smallest power of two >= v (v >= 1): ring-buffer capacities, so indexing
// is a mask instead of an integer division on the hot path.
std::size_t pow2_ceil(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

// Step source backed by a live functional executor (the direct path the
// replay differential suite compares against). Mirrors TraceCursor
// (sim/trace.hpp): both map a step to the same DecodeTable row, so the
// pipeline below runs the exact same cycle-level code for either source.
class ExecutorSource {
 public:
  ExecutorSource(const Program& program, const ExtInstTable* ext_table)
      : exec_(program, ext_table), table_(program) {}

  bool halted() const { return exec_.halted(); }
  std::uint32_t next_pc() const { return table_.row(exec_.pc()).pc; }
  DecodedStep step() {
    const StepInfo info = exec_.step();
    return {.row = &table_.row(info.index),
            .index = info.index,
            .next_index = info.next_index,
            .mem_addr = info.mem_addr,
            .mem_size = info.mem_size,
            .taken = info.branch_taken};
  }

 private:
  Executor exec_;
  DecodeTable table_;
};

struct RuuEntry {
  DecodedStep step;
  std::uint64_t seq = 0;
  std::uint64_t deps[kMaxExtInputs] = {kNoDep, kNoDep, kNoDep, kNoDep};
  int num_deps = 0;
  bool issued = false;
  bool completed = false;
  bool long_miss = false;  // occupies an MSHR while in flight
  std::uint64_t dispatch_cycle = 0;
  std::uint64_t complete_cycle = 0;
  std::uint64_t pfu_ready = 0;  // EXT: earliest issue (reconfiguration)
  // Earliest cycle a failed issue attempt could possibly succeed (producer
  // completion latency, PFU reconfiguration, pipeline fill). 0 = unknown,
  // re-examine every cycle. Purely a scan-skipping memo: an entry with
  // wake > now would have failed try_issue without consuming any FU, so
  // skipping it leaves the issue order and FU allocation untouched.
  std::uint64_t wake = 0;
};

struct FetchSlot {
  DecodedStep step;
  std::uint64_t ready_cycle = 0;
  bool mispredicted = false;
};

// --- pipeline observers ---
//
// The pipeline is templated over an observer; every observation point is
// guarded by `if constexpr (Obs::kEnabled)`, so with the null observer the
// whole layer is compiled out and the unobserved pipeline is exactly the
// pre-observability machine (BM_TimingSim pins the cost; the differential
// tests pin byte-identical SimStats).

struct NullObserver {
  static constexpr bool kEnabled = false;
  explicit NullObserver(SimObservation*) {}
};

// Trace-group ids (the Chrome format's "pid"): one row group for the RUU
// slots, one for the PFU bank.
constexpr int kPipePid = 1;
constexpr int kPfuPid = 2;

class RecordingObserver final : public PfuListener {
 public:
  static constexpr bool kEnabled = true;

  explicit RecordingObserver(SimObservation* out) : out_(out) {}

  void attach(PfuBank* bank, int ruu_size) {
    bank->set_listener(this);
    slots_ = static_cast<std::size_t>(ruu_size);
    issue_cycle_.assign(slots_, 0);
  }

  // End-of-cycle accounting.
  void on_cycle(int commits) {
    ++out_->stalls.cycles;
    if (commits > 0) ++out_->stalls.commit_cycles;
  }
  void charge(StallCause cause) {
    ++out_->stalls.causes[static_cast<int>(cause)];
  }

  // The two writers of fetch_stall_until_, distinguished so an empty-window
  // fetch stall can be charged to the right cause.
  void on_fetch_redirect() { fetch_stall_is_branch_ = true; }
  void on_fetch_miss() { fetch_stall_is_branch_ = false; }
  bool fetch_stall_is_branch() const { return fetch_stall_is_branch_; }

  void on_issue(std::uint64_t seq, std::uint64_t now) {
    issue_cycle_[seq % slots_] = now;
  }

  // Lifecycle slices are emitted at commit: the slot row is exclusively
  // occupied from dispatch to commit, and commit precedes dispatch within
  // a cycle, so per-row events are appended in monotone, balanced order.
  void on_commit(const RuuEntry& e, std::uint64_t now) {
    if (!out_->want_trace) return;
    const std::size_t slot = e.seq % slots_;
    const int tid = static_cast<int>(slot);
    if (slot >= used_slots_) used_slots_ = slot + 1;
    Json args = Json::object();
    args["seq"] = Json(static_cast<long long>(e.seq));
    args["pc"] = Json(e.step.index);
    out_->trace.begin(std::string(mnemonic(e.step.row->op)),
                      e.dispatch_cycle, kPipePid, tid, std::move(args));
    out_->trace.begin("exec", issue_cycle_[slot], kPipePid, tid);
    out_->trace.end(e.complete_cycle, kPipePid, tid);
    out_->trace.end(now, kPipePid, tid);
  }

  // PfuListener: decode-stage bank traffic.
  void on_pfu_hit(int unit, ConfId, std::uint64_t, std::uint64_t) override {
    ++unit_counters(unit).hits;
  }
  void on_pfu_reconfig(int unit, ConfId conf, ConfId evicted,
                       std::uint64_t start, std::uint64_t ready) override {
    out_->pfu_spans.push_back({unit, conf, evicted, start, ready});
    PfuUnitCounters& c = unit_counters(unit);
    ++c.reconfigurations;
    if (evicted != kInvalidConf) ++c.evictions;
    c.busy_cycles += ready - start;
    if (out_->want_trace) {
      Json args = Json::object();
      args["conf"] = Json(static_cast<int>(conf));
      if (evicted != kInvalidConf) {
        args["evicted"] = Json(static_cast<int>(evicted));
      }
      out_->trace.begin("reconfigure", start, kPfuPid, unit, std::move(args));
      out_->trace.end(ready, kPfuPid, unit);
    }
  }

  void finish() {
    if (!out_->want_trace) return;
    out_->trace.name_process(kPipePid, "pipeline");
    for (std::size_t i = 0; i < used_slots_; ++i) {
      out_->trace.name_thread(kPipePid, static_cast<int>(i),
                              "ruu[" + std::to_string(i) + "]");
    }
    if (!out_->pfu_units.empty()) {
      out_->trace.name_process(kPfuPid, "pfu bank");
      for (std::size_t i = 0; i < out_->pfu_units.size(); ++i) {
        out_->trace.name_thread(kPfuPid, static_cast<int>(i),
                                "pfu[" + std::to_string(i) + "]");
      }
    }
  }

 private:
  PfuUnitCounters& unit_counters(int unit) {
    if (static_cast<std::size_t>(unit) >= out_->pfu_units.size()) {
      out_->pfu_units.resize(static_cast<std::size_t>(unit) + 1);
    }
    return out_->pfu_units[static_cast<std::size_t>(unit)];
  }

  SimObservation* out_;
  std::size_t slots_ = 0;
  std::size_t used_slots_ = 0;
  std::vector<std::uint64_t> issue_cycle_;  // per slot, of the occupant
  bool fetch_stall_is_branch_ = false;
};

template <class Source, class Obs>
class Pipeline {
 public:
  Pipeline(Source source, const Program& program,
           const ExtInstTable* ext_table, const MachineConfig& config,
           std::uint64_t max_cycles, SimObservation* observation)
      : config_(config),
        source_(std::move(source)),
        program_(program),
        max_cycles_(max_cycles),
        l2_(config.l2),
        imem_(config.il1, &l2_, config.memory_latency, config.itlb),
        dmem_(config.dl1, &l2_, config.memory_latency, config.dtlb),
        pfus_(config.pfu),
        bpred_(config.branch),
        // The RUU and fetch queue are rings indexed by monotonically
        // increasing counters; rounding the storage up to a power of two
        // turns every slot lookup into a mask. Logical capacity is still
        // config.ruu_size / config.fetch_queue_size (ruu_full, fetch),
        // and live entries never collide because the window is bounded by
        // the logical capacity.
        ruu_(pow2_ceil(static_cast<std::size_t>(config.ruu_size))),
        ruu_mask_(ruu_.size() - 1),
        fetch_ring_(
            pow2_ceil(static_cast<std::size_t>(config.fetch_queue_size))),
        fetch_mask_(fetch_ring_.size() - 1),
        store_ring_(ruu_.size()),
        store_mask_(store_ring_.size() - 1),
        obs_(observation) {
    for (int r = 0; r < kNumRegs; ++r) last_writer_[r] = kNoDep;
    pending_.reserve(static_cast<std::size_t>(config.ruu_size));
    if constexpr (Obs::kEnabled) obs_.attach(&pfus_, config_.ruu_size);
    if (config_.pfu.multi_cycle_ext && ext_table != nullptr) {
      // Derive per-configuration latency from mapped logic depth, assuming
      // worst-case (policy-width) operands.
      ext_latency_.reserve(static_cast<std::size_t>(ext_table->size()));
      for (const ExtInstDef& def : ext_table->defs()) {
        const int levels = estimate_luts(def, {18, 18}).levels;
        ext_latency_.push_back(
            std::max(1, (levels + config_.pfu.levels_per_cycle - 1) /
                            config_.pfu.levels_per_cycle));
      }
    }
  }

  // Runs the machine until it drains and returns the statistics; call
  // exactly once. Throws SimError when the cycle bound is exceeded.
  SimStats run() {
    while (!drained()) step_cycle();
    stats_.cycles = now_;
    collect();
    if constexpr (Obs::kEnabled) obs_.finish();
    return stats_;
  }

 private:
  bool drained() const {
    return source_.halted() && fq_head_ == fq_tail_ && head_ == tail_;
  }

  void step_cycle() {
    if (now_ > max_cycles_) throw SimError("timing: cycle bound exceeded");
    const int commits = commit();
    issue();
    resolve_mispredict();
    dispatch();
    fetch();
    if constexpr (Obs::kEnabled) {
      // Attribution runs at end of cycle: every non-committing cycle is
      // charged to exactly one cause (the invariant commit_cycles +
      // sum(causes) == cycles is pinned by tests).
      obs_.on_cycle(commits);
      if (commits == 0) obs_.charge(classify_stall());
    }
    ++now_;
  }

  RuuEntry& entry(std::uint64_t seq) {
    return ruu_[static_cast<std::size_t>(seq) & ruu_mask_];
  }

  bool ruu_full() const {
    return tail_ - head_ >= static_cast<std::uint64_t>(config_.ruu_size);
  }

  // --- commit ---
  int commit() {
    int n = 0;
    while (n < config_.commit_width && head_ != tail_) {
      RuuEntry& e = entry(head_);
      if (!e.completed || e.complete_cycle > now_) break;
      if constexpr (Obs::kEnabled) obs_.on_commit(e, now_);
      ++stats_.committed;
      ++head_;
      ++n;
    }
    // Drop committed stores from the ordering ring; everything scanning it
    // afterwards only cares about stores still in the window (>= head_).
    while (st_head_ != st_tail_ &&
           store_ring_[static_cast<std::size_t>(st_head_) & store_mask_] <
               head_) {
      ++st_head_;
    }
    return n;
  }

  // --- issue ---
  // When the answer is "not ready" and `earliest` is given, *earliest is a
  // lower bound on the first cycle the dependencies could be satisfied.
  // For an in-flight producer that is its fixed completion cycle. For a
  // producer that has not even issued: the issue scan is oldest-first, so
  // by the time the consumer is examined the producer has already failed
  // (or been skipped) this cycle — it issues at now+1 at the earliest and
  // completes at now+2 at the earliest; the producer's own wake bound
  // tightens that transitively (it cannot issue before p.wake, so it
  // cannot complete before p.wake + 1). `earliest` is only meaningful
  // from that scan context; other callers must pass nullptr.
  bool deps_ready(const RuuEntry& e, std::uint64_t now,
                  std::uint64_t* earliest = nullptr) const {
    bool ready = true;
    std::uint64_t bound = 0;
    for (int i = 0; i < e.num_deps; ++i) {
      const std::uint64_t dep = e.deps[i];
      if (dep < head_) continue;  // producer already committed
      const RuuEntry& p = ruu_[static_cast<std::size_t>(dep) & ruu_mask_];
      if (!p.completed) {
        if (earliest == nullptr) return false;
        ready = false;
        bound = std::max({bound, now + 2, p.wake + 1});
      } else if (p.complete_cycle > now) {
        if (earliest == nullptr) return false;
        ready = false;
        bound = std::max(bound, p.complete_cycle);
      }
    }
    if (!ready && earliest != nullptr) *earliest = bound;
    return ready;
  }

  // True when every older store that overlaps `e` has completed; loads may
  // bypass non-overlapping stores (oracle disambiguation). Only the
  // in-window stores are consulted — the store ring holds the ascending
  // dispatched, uncommitted store seqs, so the scan is proportional to the
  // stores actually in flight instead of the whole window. `earliest`
  // follows the deps_ready contract: a lower bound on the first cycle the
  // blocking store could be out of the way, valid only from the issue scan.
  bool older_stores_done(const RuuEntry& e, std::uint64_t now,
                         std::uint64_t* earliest = nullptr) {
    for (std::uint64_t i = st_head_; i != st_tail_; ++i) {
      const std::uint64_t s =
          store_ring_[static_cast<std::size_t>(i) & store_mask_];
      if (s >= e.seq) break;
      const RuuEntry& p = entry(s);
      const std::uint32_t lo = std::max(p.step.mem_addr, e.step.mem_addr);
      const std::uint32_t hi = std::min(p.step.mem_addr + p.step.mem_size,
                                        e.step.mem_addr + e.step.mem_size);
      if (lo >= hi) continue;  // disjoint
      if (!p.completed || p.complete_cycle > now) {
        if (earliest != nullptr) {
          *earliest = p.completed ? p.complete_cycle
                                  : std::max(now + 2, p.wake + 1);
        }
        return false;
      }
    }
    return true;
  }

  // Long-latency memory operations currently in flight (for the MSHR cap).
  int misses_in_flight(std::uint64_t now) {
    int n = 0;
    for (std::uint64_t s = head_; s != tail_; ++s) {
      const RuuEntry& e = entry(s);
      if (e.issued && e.long_miss && e.complete_cycle > now) ++n;
    }
    return n;
  }

  // Attempts to issue `e` this cycle; the historical oldest-first scan
  // body, verbatim. Returns true when issued (FU counters consumed).
  bool try_issue(RuuEntry& e, int& alus, int& mults, int& ports,
                 int& mshrs_free) {
    if (e.dispatch_cycle >= now_) {
      e.wake = e.dispatch_cycle + 1;
      return false;
    }
    if (!deps_ready(e, now_, &e.wake)) return false;

    int latency = 1;
    switch (e.step.row->fu) {
      case FuClass::kIntAlu:
      case FuClass::kBranch:
        if (alus == config_.int_alus) return false;
        ++alus;
        break;
      case FuClass::kIntMul:
        if (mults == config_.int_mults) return false;
        ++mults;
        latency = base_latency(Opcode::kMul);
        break;
      case FuClass::kMemRead: {
        if (ports == config_.mem_ports) return false;
        if (mshrs_free <= 0) return false;  // conservative: no free slot
        if (!older_stores_done(e, now_, &e.wake)) return false;
        ++ports;
        latency = dmem_.access(e.step.mem_addr, /*is_write=*/false);
        if (latency > config_.dl1.hit_latency) {
          e.long_miss = true;
          --mshrs_free;
        }
        break;
      }
      case FuClass::kMemWrite:
        if (ports == config_.mem_ports) return false;
        if (mshrs_free <= 0) return false;
        ++ports;
        latency = dmem_.access(e.step.mem_addr, /*is_write=*/true);
        if (latency > config_.dl1.hit_latency) {
          e.long_miss = true;
          --mshrs_free;
        }
        break;
      case FuClass::kPfu:
        if (e.pfu_ready > now_) {
          e.wake = e.pfu_ready;
          return false;
        }
        if (!ext_latency_.empty()) {
          latency = ext_latency_[e.step.row->conf];
        }
        break;
      case FuClass::kNone:
        break;
    }
    e.issued = true;
    e.completed = true;
    e.complete_cycle = now_ + static_cast<std::uint64_t>(latency);
    if constexpr (Obs::kEnabled) obs_.on_issue(e.seq, now_);
    return true;
  }

  void issue() {
    if (pending_.empty()) return;
    int issued = 0;
    int alus = 0;
    int mults = 0;
    int ports = 0;
    int mshrs_free = config_.max_outstanding_misses == 0
                         ? 1 << 30
                         : config_.max_outstanding_misses -
                               misses_in_flight(now_);
    // One oldest-first pass over the not-yet-issued entries. pending_ is
    // kept ascending by stable compaction, so the visit order — and
    // therefore FU allocation — is identical to the historical full-window
    // scan that skipped issued entries. Entries dormant until a known
    // future cycle (wake) are skipped without re-deriving the failure;
    // they would have issued nothing and consumed no FU either way.
    std::size_t keep = 0;
    std::size_t i = 0;
    for (; i < pending_.size() && issued < config_.issue_width; ++i) {
      const std::uint64_t s = pending_[i];
      RuuEntry& e = entry(s);
      if (e.wake <= now_ && try_issue(e, alus, mults, ports, mshrs_free)) {
        ++issued;
      } else {
        pending_[keep++] = s;
      }
    }
    for (; i < pending_.size(); ++i) pending_[keep++] = pending_[i];
    pending_.resize(keep);
  }

  // --- dispatch (decode/rename) ---
  void dispatch() {
    for (int n = 0; n < config_.decode_width; ++n) {
      if (fq_head_ == fq_tail_ || ruu_full()) return;
      const FetchSlot& slot =
          fetch_ring_[static_cast<std::size_t>(fq_head_) & fetch_mask_];
      if (slot.ready_cycle > now_) return;

      RuuEntry& e = entry(tail_);
      e = RuuEntry{};
      e.step = slot.step;
      e.seq = tail_;
      e.dispatch_cycle = now_;

      const DecodeRow& row = *e.step.row;
      for (int i = 0; i < row.srcs.count; ++i) {
        const std::uint64_t w = last_writer_[row.srcs.reg[i]];
        if (w != kNoDep && w >= head_) e.deps[e.num_deps++] = w;
      }
      if (row.dst >= 0) {
        last_writer_[row.dst] = tail_;
      }
      if (row.dst2 >= 0) {
        last_writer_[row.dst2] = tail_;
      }
      if (row.is_ext) {
        e.pfu_ready = pfus_.request(row.conf, now_);
      }
      if (row.is_store) {
        store_ring_[static_cast<std::size_t>(st_tail_++) & store_mask_] =
            tail_;
      }
      if (slot.mispredicted) pending_branch_seq_ = tail_;
      pending_.push_back(tail_);
      ++tail_;
      ++fq_head_;
    }
  }

  // When a mispredicted branch resolves, schedule the front-end redirect.
  void resolve_mispredict() {
    if (!blocked_on_branch_ || pending_branch_seq_ == kNoDep) return;
    // Fetch is frozen, so the RUU tail cannot advance and the entry is
    // never recycled before this check sees it complete.
    const RuuEntry& e = entry(pending_branch_seq_);
    if (!e.completed || e.complete_cycle > now_) return;
    fetch_stall_until_ =
        std::max(fetch_stall_until_,
                 e.complete_cycle +
                     static_cast<std::uint64_t>(config_.branch.mispredict_penalty));
    blocked_on_branch_ = false;
    pending_branch_seq_ = kNoDep;
    if constexpr (Obs::kEnabled) obs_.on_fetch_redirect();
  }

  // --- fetch ---
  void fetch() {
    if (blocked_on_branch_) return;  // awaiting a branch redirect
    if (now_ < fetch_stall_until_) return;
    for (int n = 0; n < config_.fetch_width; ++n) {
      if (source_.halted()) return;
      if (static_cast<int>(fq_tail_ - fq_head_) >= config_.fetch_queue_size) {
        return;
      }
      const std::uint32_t pc = source_.next_pc();
      const std::uint32_t line = pc / config_.il1.line_bytes;
      std::uint64_t ready = now_ + 1;
      if (line != current_fetch_line_) {
        const int lat = imem_.access(pc);
        current_fetch_line_ = line;
        current_line_ready_ = now_ + static_cast<std::uint64_t>(lat);
        if (lat > config_.il1.hit_latency) {
          // Miss: the front end stalls until the line arrives.
          fetch_stall_until_ = current_line_ready_;
          if constexpr (Obs::kEnabled) obs_.on_fetch_miss();
        }
      }
      ready = std::max(ready, current_line_ready_);

      const DecodedStep step = source_.step();
      if (step.index >= program_.size()) return;  // off-the-end halt
      bool correct = true;
      if (step.row->is_ctrl) {
        correct = bpred_.predict_and_update(step.row->op, step.index,
                                            step.taken, step.next_index);
      }
      FetchSlot& slot =
          fetch_ring_[static_cast<std::size_t>(fq_tail_++) & fetch_mask_];
      slot.step = step;
      slot.ready_cycle = ready;
      slot.mispredicted = !correct;
      if (!correct) {
        // Fetch halts here until the branch resolves in the back end.
        blocked_on_branch_ = true;
        return;
      }
      if (step.taken) return;  // no fetching past a taken branch
      if (fetch_stall_until_ > now_) return;
    }
  }

  // --- stall-cause classification (observed runs only) ---
  //
  // Called at end of a cycle that committed nothing; charges the cycle to
  // exactly one cause. Commit is in-order, so when the window is non-empty
  // the head entry is what blocks the machine; head-specific causes are
  // tested before the window-shape ones so e.g. a reconfiguration wait is
  // never masked as "window full". With an empty window the front end is
  // responsible.
  StallCause classify_stall() {
    const std::uint64_t now = now_;
    if (head_ != tail_) {
      RuuEntry& e = entry(head_);
      if (!e.issued) {
        // Entries dispatched at `now` can issue at `now + 1` earliest: a
        // pure pipeline fill bubble.
        if (e.dispatch_cycle >= now) return StallCause::kFrontend;
        if (!deps_ready(e, now)) return StallCause::kOperandWait;
        const FuClass fu = e.step.row->fu;
        if (fu == FuClass::kPfu && e.pfu_ready > now) {
          return StallCause::kExtReconfig;
        }
        if (fu == FuClass::kMemRead && !older_stores_done(e, now)) {
          return StallCause::kOperandWait;
        }
        if ((fu == FuClass::kMemRead || fu == FuClass::kMemWrite) &&
            config_.max_outstanding_misses != 0 &&
            misses_in_flight(now) >= config_.max_outstanding_misses) {
          return StallCause::kMshrFull;
        }
        // The head is oldest and therefore first in line for every FU, so
        // a ready-but-unissued head can only be a same-cycle artifact.
        return StallCause::kFrontend;
      }
      // Issued but not committed: complete_cycle > now (a head completed
      // by `now` would have committed this cycle).
      if (ruu_full()) return StallCause::kRuuFull;
      if (e.long_miss) return StallCause::kExecMem;
      return StallCause::kExec;
    }
    // Window empty: the front end owns the cycle.
    if (source_.halted()) return StallCause::kDrain;
    if (fq_head_ != fq_tail_) {
      // Slots waiting on their I-cache line; a slot ready next cycle is
      // just the fetch->dispatch pipeline latency.
      return fetch_ring_[static_cast<std::size_t>(fq_head_) & fetch_mask_]
                     .ready_cycle <= now + 1
                 ? StallCause::kFrontend
                 : StallCause::kFetchMem;
    }
    if (blocked_on_branch_) return StallCause::kFetchBranch;
    if (now < fetch_stall_until_) {
      return obs_.fetch_stall_is_branch() ? StallCause::kFetchBranch
                                          : StallCause::kFetchMem;
    }
    return StallCause::kFrontend;
  }

  void collect() {
    stats_.il1 = imem_.l1().stats();
    stats_.dl1 = dmem_.l1().stats();
    stats_.l2 = l2_.stats();
    stats_.itlb = imem_.tlb().stats();
    stats_.dtlb = dmem_.tlb().stats();
    stats_.pfu = pfus_.stats();
    stats_.branch = bpred_.stats();
  }

  MachineConfig config_;
  Source source_;
  const Program& program_;
  std::uint64_t max_cycles_;
  Cache l2_;
  MemHierarchy imem_;
  MemHierarchy dmem_;
  PfuBank pfus_;
  BranchPredictor bpred_;

  std::vector<RuuEntry> ruu_;
  std::size_t ruu_mask_;
  // Fetch queue as a power-of-two ring indexed by monotone counters;
  // logical occupancy (fq_tail_ - fq_head_) is capped at
  // config.fetch_queue_size by fetch(), so slots never collide.
  std::vector<FetchSlot> fetch_ring_;
  std::size_t fetch_mask_;
  std::uint64_t fq_head_ = 0;
  std::uint64_t fq_tail_ = 0;
  std::uint64_t head_ = 0;
  std::uint64_t tail_ = 0;
  // Dispatched-but-unissued seqs, ascending (the issue scan's worklist).
  std::vector<std::uint64_t> pending_;
  // Dispatched, uncommitted store seqs, ascending (memory ordering scans),
  // as a power-of-two ring: at most one store per window slot is live.
  std::vector<std::uint64_t> store_ring_;
  std::size_t store_mask_;
  std::uint64_t st_head_ = 0;
  std::uint64_t st_tail_ = 0;
  std::uint64_t last_writer_[kNumRegs] = {};
  std::uint32_t current_fetch_line_ = ~0u;
  std::uint64_t current_line_ready_ = 0;
  std::uint64_t fetch_stall_until_ = 0;
  bool blocked_on_branch_ = false;
  std::uint64_t pending_branch_seq_ = kNoDep;
  std::vector<int> ext_latency_;  // per Conf id; empty = single-cycle
  std::uint64_t now_ = 0;

  Obs obs_;
  SimStats stats_;
};

// Validates the machine, then runs one pipeline over `source` to
// completion. Single replay, every batch lane and the direct path all come
// through here.
template <class Source>
SimStats run_pipeline(Source source, const SimRequest& request) {
  if (const std::string bad = validate(request.machine); !bad.empty()) {
    throw SimError("timing: machine config: " + bad);
  }
  if (request.observation != nullptr) {
    return Pipeline<Source, RecordingObserver>(
               std::move(source), *request.program, request.ext_table,
               request.machine, request.max_cycles, request.observation)
        .run();
  }
  return Pipeline<Source, NullObserver>(std::move(source), *request.program,
                                        request.ext_table, request.machine,
                                        request.max_cycles, nullptr)
      .run();
}

}  // namespace

SimStats simulate(const SimRequest& request) {
  if (request.program == nullptr) {
    throw SimError("simulate: request.program is required");
  }
  if (request.trace != nullptr) {
    const DecodedTrace decoded(*request.trace, *request.program);
    return run_pipeline(TraceCursor(decoded), request);
  }
  return run_pipeline(ExecutorSource(*request.program, request.ext_table),
                      request);
}

std::vector<BatchLaneResult> simulate_replay_batch(
    const BatchSimRequest& request) {
  if (request.program == nullptr || request.trace == nullptr) {
    throw SimError("simulate_replay_batch: program and trace are required");
  }
  std::vector<BatchLaneResult> results(request.lanes.size());
  const DecodedTrace decoded(*request.trace, *request.program);
  // Lanes are independent machines, each run to completion on its own
  // cursor over the shared table. A lane that fails (bad machine, cycle
  // bound, ...) fails alone; the others still run.
  for (std::size_t i = 0; i < request.lanes.size(); ++i) {
    const BatchSimRequest::Lane& lane = request.lanes[i];
    try {
      results[i].stats = run_pipeline(TraceCursor(decoded),
                                      {.program = request.program,
                                       .ext_table = request.ext_table,
                                       .machine = lane.machine,
                                       .max_cycles = lane.max_cycles,
                                       .observation = lane.observation});
    } catch (...) {
      results[i].error = std::current_exception();
    }
  }
  return results;
}

}  // namespace t1000
