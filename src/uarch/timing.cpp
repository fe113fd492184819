#include "uarch/timing.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "harness/json.hpp"
#include "hwcost/lut_model.hpp"
#include "isa/opcode.hpp"
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
constexpr std::uint64_t kNever = ~0ull;
constexpr std::int32_t kNoEdge = -1;

// Smallest power of two >= v (v >= 1): ring-buffer capacities, so indexing
// is a mask instead of an integer division on the hot path.
std::size_t pow2_ceil(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

// One cache line per entry. Dispatch sets every field, and the FU class is
// copied out of the row so issue and stall classification need not load it.
struct alignas(64) RuuEntry {
  const DecodeRow* row = nullptr;
  std::uint64_t seq = 0;
  std::uint64_t dispatch_cycle = 0;
  std::uint64_t complete_cycle = 0;
  std::uint64_t pfu_ready = 0;  // EXT: earliest issue (reconfiguration)
  // Earliest issue cycle known so far: dispatch_cycle + 1, pfu_ready, and
  // the complete_cycle of every issued producer and, for a load, of the
  // older overlapping store it last found in its way; for a load or store
  // that found every MSHR taken, the first cycle one of them frees.
  std::uint64_t ready_at = 0;
  std::uint32_t mem_addr = 0;
  // Head of this entry's consumer list in the pipeline's edge pool,
  // consumed when the entry issues.
  std::int32_t consumers = kNoEdge;
  std::uint8_t mem_size = 0;
  FuClass fu = FuClass::kNone;
  bool issued = false;     // complete_cycle is known from issue on
  bool long_miss = false;  // occupies an MSHR while in flight
  // Entries that must issue before this one can: at most one per source
  // register, or else the one store a load waits on.
  std::uint8_t waiting = 0;
};
static_assert(sizeof(RuuEntry) == 64, "one cache line per RUU entry");

struct FetchSlot {
  const DecodeRow* row = nullptr;
  std::uint64_t ready_cycle = 0;
  std::uint32_t mem_addr = 0;
  std::uint8_t mem_size = 0;
  bool mispredicted = false;
};
static_assert(sizeof(FetchSlot) <= 24, "written per fetched instruction");

// --- pipeline observers ---
//
// The pipeline is templated over an observer; every observation point is
// guarded by `if constexpr (Obs::kEnabled)`, so with the null observer the
// whole layer is compiled out and the unobserved pipeline is exactly the
// pre-observability machine (BM_ReplayTimingSim pins the cost; the oracle
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

  // want_trace is read once: only the lifecycle slices it asks for read
  // the issue cycles, so an untraced run skips the store (and the
  // division by the runtime RUU size) on every issue.
  explicit RecordingObserver(SimObservation* out)
      : out_(out), want_trace_(out->want_trace) {}

  void attach(PfuBank* bank, int ruu_size) {
    if (want_trace_) bank->set_listener(this);
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
    if (want_trace_) issue_cycle_[seq % slots_] = now;
  }

  // Lifecycle slices are emitted at commit: the slot row is exclusively
  // occupied from dispatch to commit, and commit precedes dispatch within
  // a cycle, so per-row events are appended in monotone, balanced order.
  void on_commit(const RuuEntry& e, std::uint64_t now) {
    if (!want_trace_) return;
    const std::size_t slot = e.seq % slots_;
    const int tid = static_cast<int>(slot);
    if (slot >= used_slots_) used_slots_ = slot + 1;
    Json args = Json::object();
    args["seq"] = Json(static_cast<long long>(e.seq));
    args["pc"] = Json(e.row->index);
    out_->trace.begin(std::string(mnemonic(e.row->op)),
                      e.dispatch_cycle, kPipePid, tid, std::move(args));
    out_->trace.begin("exec", issue_cycle_[slot], kPipePid, tid);
    out_->trace.end(e.complete_cycle, kPipePid, tid);
    out_->trace.end(now, kPipePid, tid);
  }

  // PfuListener, attached only to traced runs: one slice per
  // reconfiguration on its unit's row.
  void on_pfu_reconfig(int unit, ConfId conf, ConfId evicted,
                       std::uint64_t start, std::uint64_t ready) override {
    const auto row = static_cast<std::size_t>(unit);
    if (row >= used_units_) used_units_ = row + 1;
    Json args = Json::object();
    args["conf"] = Json(static_cast<int>(conf));
    if (evicted != kInvalidConf) {
      args["evicted"] = Json(static_cast<int>(evicted));
    }
    out_->trace.begin("reconfigure", start, kPfuPid, unit, std::move(args));
    out_->trace.end(ready, kPfuPid, unit);
  }

  void finish() {
    if (!want_trace_) return;
    out_->trace.name_process(kPipePid, "pipeline");
    for (std::size_t i = 0; i < used_slots_; ++i) {
      out_->trace.name_thread(kPipePid, static_cast<int>(i),
                              "ruu[" + std::to_string(i) + "]");
    }
    if (used_units_ > 0) {
      out_->trace.name_process(kPfuPid, "pfu bank");
      for (std::size_t i = 0; i < used_units_; ++i) {
        out_->trace.name_thread(kPfuPid, static_cast<int>(i),
                                "pfu[" + std::to_string(i) + "]");
      }
    }
  }

 private:
  SimObservation* out_;
  const bool want_trace_;
  std::size_t slots_ = 0;
  std::size_t used_slots_ = 0;
  std::size_t used_units_ = 0;  // rows up to the highest unit traced
  std::vector<std::uint64_t> issue_cycle_;  // per slot, of the occupant
  bool fetch_stall_is_branch_ = false;
};

template <class Obs>
class Pipeline {
 public:
  Pipeline(const DecodedTrace& decoded, const ExtInstTable* ext_table,
           const MachineConfig& config, std::uint64_t max_cycles,
           SimObservation* observation)
      : config_(config),
        cursor_(decoded),
        max_cycles_(max_cycles),
        // validate() admits only power-of-two line sizes.
        il1_line_shift_(std::countr_zero(config.il1.line_bytes)),
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
        edge_next_(ruu_.size() * kMaxExtInputs, kNoEdge),
        ready_bits_((ruu_.size() + 63) / 64, 0),
        obs_(observation) {
    for (int r = 0; r < kNumRegs; ++r) last_writer_[r] = kNoDep;
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
    return cursor_.halted() && fq_head_ == fq_tail_ && head_ == tail_;
  }

  void step_cycle() {
    if (now_ > max_cycles_) throw SimError("timing: cycle bound exceeded");
    const int commits = commit();
    const int issued = issue();
    const bool redirected = resolve_mispredict();
    const int dispatched = dispatch();
    const bool fetched = fetch();
    if constexpr (Obs::kEnabled) {
      // Attribution runs at end of cycle: every non-committing cycle is
      // charged to exactly one cause (the invariant commit_cycles +
      // sum(causes) == cycles is pinned by tests).
      obs_.on_cycle(commits);
      if (commits == 0) obs_.charge(classify_stall());
    }
    ++now_;
    if (commits + issued + dispatched == 0 && !redirected && !fetched) {
      skip_idle();
    }
  }

  // After a cycle that changed nothing, every cycle before the next event
  // would change nothing either: jump the clock there. Observed runs still
  // charge each skipped cycle exactly as if it had been simulated.
  void skip_idle() {
    if (drained()) return;
    const std::uint64_t next = next_event();
    if (next <= now_) return;
    // No event at all is a deadlock, which the cycle bound would report.
    if (next > max_cycles_) throw SimError("timing: cycle bound exceeded");
    if constexpr (Obs::kEnabled) {
      for (; now_ < next; ++now_) {
        obs_.on_cycle(0);
        obs_.charge(classify_stall());
      }
    }
    now_ = next;
  }

  // The earliest cycle at which some stage could act, given that the state
  // does not change before then (kNever if none can).
  std::uint64_t next_event() const {
    std::uint64_t next = kNever;
    if (head_ != tail_ && entry(head_).issued) {
      next = entry(head_).complete_cycle;  // commit
    }
    for_each_ready([&](std::size_t slot) {  // issue
      next = std::min(next, ruu_[slot].ready_at);
      return true;
    });
    if (!calendar_.empty()) next = std::min(next, calendar_.front().first);
    if (blocked_on_branch_ && pending_branch_seq_ != kNoDep &&
        entry(pending_branch_seq_).issued) {  // redirect
      next = std::min(next, entry(pending_branch_seq_).complete_cycle);
    }
    if (fq_head_ != fq_tail_ && !ruu_full()) {  // dispatch
      next = std::min(
          next, fetch_ring_[static_cast<std::size_t>(fq_head_) & fetch_mask_]
                    .ready_cycle);
    }
    if (!blocked_on_branch_ && can_fetch()) {  // fetch
      next = std::min(next, std::max(now_, fetch_stall_until_));
    }
    return next;
  }

  RuuEntry& entry(std::uint64_t seq) {
    return ruu_[static_cast<std::size_t>(seq) & ruu_mask_];
  }
  const RuuEntry& entry(std::uint64_t seq) const {
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
      if (!e.issued || e.complete_cycle > now_) break;
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
  //
  // Event-driven select. An entry waits on each producer that has not
  // issued through an edge in that producer's consumer list; when the last
  // one issues, the entry becomes an issue candidate with an exact
  // ready_at. Candidates due by next cycle sit in a per-slot bitset, later
  // ones in a (ready_at, seq) min-heap calendar until due. Entries that are
  // not candidates, or whose ready_at is still ahead, would fail try_issue
  // without consuming any FU, so visiting only the due candidates
  // oldest-first issues exactly what a rescan of the whole window would.

  // The oldest store older than `e` that overlaps it and has not completed
  // by `now`, or kNoDep; loads may bypass non-overlapping stores (oracle
  // disambiguation). Only the in-window stores are consulted — the store
  // ring holds the ascending dispatched, uncommitted store seqs, so the
  // scan is proportional to the stores actually in flight instead of the
  // whole window.
  std::uint64_t blocking_store(const RuuEntry& e, std::uint64_t now) const {
    for (std::uint64_t i = st_head_; i != st_tail_; ++i) {
      const std::uint64_t s =
          store_ring_[static_cast<std::size_t>(i) & store_mask_];
      if (s >= e.seq) break;
      const RuuEntry& p = entry(s);
      const std::uint32_t lo = std::max(p.mem_addr, e.mem_addr);
      const std::uint32_t hi =
          std::min(p.mem_addr + p.mem_size, e.mem_addr + e.mem_size);
      if (lo >= hi) continue;  // disjoint
      if (!p.issued || p.complete_cycle > now) return s;
    }
    return kNoDep;
  }

  // Long-latency memory operations in flight at `now` (for the MSHR cap):
  // the heap keeps the completion cycle of each issued long miss, so this
  // drops those that have completed. Exact, since `now` never decreases and
  // a long miss commits only once it has completed.
  int misses_in_flight(std::uint64_t now) {
    while (!miss_heap_.empty() && miss_heap_.front() <= now) {
      std::pop_heap(miss_heap_.begin(), miss_heap_.end(), std::greater<>());
      miss_heap_.pop_back();
    }
    return static_cast<int>(miss_heap_.size());
  }

  // Marks `e`, just issued with `latency`, as holding an MSHR until it
  // completes. The heap is only kept when the MSHRs are capped.
  void take_mshr(RuuEntry& e, int latency, int& mshrs_free) {
    e.long_miss = true;
    if (config_.max_outstanding_misses == 0) return;
    --mshrs_free;
    miss_heap_.push_back(now_ + static_cast<std::uint64_t>(latency));
    std::push_heap(miss_heap_.begin(), miss_heap_.end(), std::greater<>());
  }

  // A load or store that finds every MSHR taken leaves the ready set until
  // the earliest in-flight miss completes: no MSHR frees before then, and
  // its failed attempts in between would change nothing.
  void wait_for_mshr(RuuEntry& e) {
    set_ready(e.seq, false);
    e.ready_at = std::max(e.ready_at, miss_heap_.front());
    add_candidate(e);
  }

  // Attempts to issue the due candidate `e` this cycle: functional-unit,
  // MSHR and store-ordering checks. Returns true when issued (FU counters
  // consumed).
  bool try_issue(RuuEntry& e, int& alus, int& mults, int& ports,
                 int& mshrs_free) {
    int latency = 1;
    switch (e.fu) {
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
        if (mshrs_free <= 0) {  // conservative: no free slot
          wait_for_mshr(e);
          return false;
        }
        if (const std::uint64_t s = blocking_store(e, now_); s != kNoDep) {
          wait_for_store(e, entry(s));
          return false;
        }
        ++ports;
        latency = dmem_.access(e.mem_addr, /*is_write=*/false);
        if (latency > config_.dl1.hit_latency) {
          take_mshr(e, latency, mshrs_free);
        }
        break;
      }
      case FuClass::kMemWrite:
        if (ports == config_.mem_ports) return false;
        if (mshrs_free <= 0) {
          wait_for_mshr(e);
          return false;
        }
        ++ports;
        latency = dmem_.access(e.mem_addr, /*is_write=*/true);
        if (latency > config_.dl1.hit_latency) {
          take_mshr(e, latency, mshrs_free);
        }
        break;
      case FuClass::kPfu:
        if (!ext_latency_.empty()) {
          latency = ext_latency_[e.row->conf];
        }
        break;
      case FuClass::kNone:
        break;
    }
    e.issued = true;
    e.complete_cycle = now_ + static_cast<std::uint64_t>(latency);
    if constexpr (Obs::kEnabled) obs_.on_issue(e.seq, now_);
    return true;
  }

  int issue() {
    while (!calendar_.empty() && calendar_.front().first <= now_) {
      std::pop_heap(calendar_.begin(), calendar_.end(), std::greater<>());
      set_ready(calendar_.back().second, true);
      calendar_.pop_back();
    }
    if (num_ready_ == 0) return 0;
    int issued = 0;
    int alus = 0;
    int mults = 0;
    int ports = 0;
    int mshrs_free = config_.max_outstanding_misses == 0
                         ? 1 << 30
                         : config_.max_outstanding_misses -
                               misses_in_flight(now_);
    for_each_ready([&](std::size_t slot) {
      RuuEntry& e = ruu_[slot];
      if (e.ready_at > now_ || !try_issue(e, alus, mults, ports, mshrs_free)) {
        return true;
      }
      set_ready(e.seq, false);
      wake_consumers(e);
      return ++issued < config_.issue_width;
    });
    return issued;
  }

  // A load cannot pass the store-ordering check before the store in its way
  // completes: it leaves the ready set until then, waiting on the store like
  // on a producer if the store has not issued (through the load's first
  // edge, free since all its producers have issued).
  void wait_for_store(RuuEntry& load, RuuEntry& store) {
    set_ready(load.seq, false);
    if (store.issued) {
      load.ready_at = std::max(load.ready_at, store.complete_cycle);
      add_candidate(load);
    } else {
      add_edge(store, load, 0);
    }
  }

  // Makes `consumer` wait for `producer` to issue, through the pool edge at
  // (consumer's slot, index).
  void add_edge(RuuEntry& producer, RuuEntry& consumer, int index) {
    const std::size_t edge =
        (static_cast<std::size_t>(consumer.seq) & ruu_mask_) * kMaxExtInputs +
        static_cast<std::size_t>(index);
    edge_next_[edge] = producer.consumers;
    producer.consumers = static_cast<std::int32_t>(edge);
    ++consumer.waiting;
  }

  // An issued producer hands its completion cycle to every consumer; a
  // consumer whose last producer this was becomes a candidate.
  void wake_consumers(RuuEntry& p) {
    for (std::int32_t edge = p.consumers; edge != kNoEdge;
         edge = edge_next_[static_cast<std::size_t>(edge)]) {
      RuuEntry& c = ruu_[static_cast<std::size_t>(edge) / kMaxExtInputs];
      c.ready_at = std::max(c.ready_at, p.complete_cycle);
      if (--c.waiting == 0) add_candidate(c);
    }
    p.consumers = kNoEdge;
  }

  void add_candidate(const RuuEntry& e) {
    if (e.ready_at <= now_ + 1) {
      set_ready(e.seq, true);
    } else {
      calendar_.emplace_back(e.ready_at, e.seq);
      std::push_heap(calendar_.begin(), calendar_.end(), std::greater<>());
    }
  }

  void set_ready(std::uint64_t seq, bool ready) {
    const std::size_t slot = static_cast<std::size_t>(seq) & ruu_mask_;
    const std::uint64_t bit = 1ull << (slot % 64);
    if (ready) {
      ready_bits_[slot / 64] |= bit;
      ++num_ready_;
    } else {
      ready_bits_[slot / 64] &= ~bit;
      --num_ready_;
    }
  }

  // Calls visit(slot) for each due candidate, oldest first: ring positions
  // upward from the head's slot, wrapping. Stops when visit returns false.
  template <class Visit>
  void for_each_ready(Visit&& visit) const {
    const std::size_t words = ready_bits_.size();
    const std::size_t first = static_cast<std::size_t>(head_) & ruu_mask_;
    const std::uint64_t below_head = (1ull << (first % 64)) - 1;
    std::size_t w = first / 64;
    std::uint64_t bits = ready_bits_[w] & ~below_head;
    for (std::size_t n = 0; n <= words; ++n) {
      while (bits != 0) {
        const std::size_t slot =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        if (!visit(slot)) return;
      }
      w = w + 1 == words ? 0 : w + 1;
      bits = ready_bits_[w];
      if (n + 1 == words) bits &= below_head;  // back at the head's word
    }
  }

  // --- dispatch (decode/rename) ---
  // Returns the number of instructions dispatched.
  int dispatch() {
    int n = 0;
    for (; n < config_.decode_width; ++n) {
      if (fq_head_ == fq_tail_ || ruu_full()) break;
      const FetchSlot& slot =
          fetch_ring_[static_cast<std::size_t>(fq_head_) & fetch_mask_];
      if (slot.ready_cycle > now_) break;

      const DecodeRow& row = *slot.row;
      RuuEntry& e = entry(tail_);
      e.row = slot.row;
      e.seq = tail_;
      e.dispatch_cycle = now_;
      e.complete_cycle = 0;
      e.pfu_ready = 0;
      e.ready_at = now_ + 1;
      e.mem_addr = slot.mem_addr;
      e.consumers = kNoEdge;
      e.mem_size = slot.mem_size;
      e.fu = row.fu;
      e.issued = false;
      e.long_miss = false;
      e.waiting = 0;

      // Renaming: an issued producer fixes ready_at now; one that has not
      // issued gets an edge to this entry in its consumer list. Edges live
      // at (slot, source) in a fixed pool; a producer always issues before
      // its consumers can, so the lists are empty when a slot is reused.
      for (int i = 0; i < row.srcs.count; ++i) {
        const std::uint64_t w = last_writer_[row.srcs.reg[i]];
        if (w == kNoDep || w < head_) continue;
        RuuEntry& p = entry(w);
        if (p.issued) {
          e.ready_at = std::max(e.ready_at, p.complete_cycle);
        } else {
          add_edge(p, e, i);
        }
      }
      if (row.dst >= 0) {
        last_writer_[row.dst] = tail_;
      }
      if (row.dst2 >= 0) {
        last_writer_[row.dst2] = tail_;
      }
      if (row.is_ext) {
        e.pfu_ready = pfus_.request(row.conf, now_);
        e.ready_at = std::max(e.ready_at, e.pfu_ready);
      }
      if (row.is_store) {
        store_ring_[static_cast<std::size_t>(st_tail_++) & store_mask_] =
            tail_;
      }
      if (slot.mispredicted) pending_branch_seq_ = tail_;
      if (e.waiting == 0) add_candidate(e);
      ++tail_;
      ++fq_head_;
    }
    return n;
  }

  // When a mispredicted branch resolves, schedule the front-end redirect.
  // Returns whether it did.
  bool resolve_mispredict() {
    if (!blocked_on_branch_ || pending_branch_seq_ == kNoDep) return false;
    // Fetch is frozen, so the RUU tail cannot advance and the entry is
    // never recycled before this check sees it complete.
    const RuuEntry& e = entry(pending_branch_seq_);
    if (!e.issued || e.complete_cycle > now_) return false;
    fetch_stall_until_ =
        std::max(fetch_stall_until_,
                 e.complete_cycle +
                     static_cast<std::uint64_t>(config_.branch.mispredict_penalty));
    blocked_on_branch_ = false;
    pending_branch_seq_ = kNoDep;
    if constexpr (Obs::kEnabled) obs_.on_fetch_redirect();
    return true;
  }

  // --- fetch ---
  bool can_fetch() const {
    return !cursor_.halted() &&
           static_cast<int>(fq_tail_ - fq_head_) < config_.fetch_queue_size;
  }

  // Returns whether anything was fetched.
  bool fetch() {
    if (blocked_on_branch_) return false;  // awaiting a branch redirect
    if (now_ < fetch_stall_until_ || !can_fetch()) return false;
    for (int n = 0; n < config_.fetch_width && can_fetch(); ++n) {
      const std::uint32_t pc = cursor_.next_pc();
      const std::uint32_t line = pc >> il1_line_shift_;
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

      const DecodedStep step = cursor_.step();
      const DecodeRow& row = *step.row;
      if (row.sentinel) break;  // off-the-end halt
      bool correct = true;
      if (row.is_ctrl) {
        correct = bpred_.predict_and_update(row.op, row.index, step.taken,
                                            step.next_index);
      }
      // Field by field: copying the step whole reloads it from the stack.
      FetchSlot& slot =
          fetch_ring_[static_cast<std::size_t>(fq_tail_++) & fetch_mask_];
      slot.row = step.row;
      slot.ready_cycle = ready;
      slot.mem_addr = step.mem_addr;
      slot.mem_size = step.mem_size;
      slot.mispredicted = !correct;
      if (!correct) {
        // Fetch halts here until the branch resolves in the back end.
        blocked_on_branch_ = true;
        break;
      }
      if (step.taken) break;  // no fetching past a taken branch
      if (fetch_stall_until_ > now_) break;
    }
    return true;
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
        // The head never waits on an operand: its producers and the stores
        // before it are older, so they have committed.
        const FuClass fu = e.fu;
        if (fu == FuClass::kPfu && e.pfu_ready > now) {
          return StallCause::kExtReconfig;
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
    if (cursor_.halted()) return StallCause::kDrain;
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
  TraceCursor cursor_;
  std::uint64_t max_cycles_;
  int il1_line_shift_;  // fetch line = pc >> il1_line_shift_
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
  // Dispatched, uncommitted store seqs, ascending (memory ordering scans),
  // as a power-of-two ring: at most one store per window slot is live.
  std::vector<std::uint64_t> store_ring_;
  std::size_t store_mask_;
  std::uint64_t st_head_ = 0;
  std::uint64_t st_tail_ = 0;
  // The scheduler: consumer-list links per (slot, source), one bit per
  // slot for the due candidates, and the calendar of later ones.
  std::vector<std::int32_t> edge_next_;
  std::vector<std::uint64_t> ready_bits_;
  std::size_t num_ready_ = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> calendar_;
  // Completion cycles of the long misses in flight, a min-heap; kept only
  // when max_outstanding_misses caps them.
  std::vector<std::uint64_t> miss_heap_;
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

void check_machine(const MachineConfig& machine) {
  if (const std::string bad = validate(machine); !bad.empty()) {
    throw SimError("timing: machine config: " + bad);
  }
}

// Validates the machine, then runs one pipeline over `decoded` to
// completion. Single replay and every batch lane come through here.
SimStats run_pipeline(const DecodedTrace& decoded, const SimRequest& request) {
  check_machine(request.machine);
  if (request.observation != nullptr) {
    return Pipeline<RecordingObserver>(decoded, request.ext_table,
                                       request.machine, request.max_cycles,
                                       request.observation)
        .run();
  }
  return Pipeline<NullObserver>(decoded, request.ext_table, request.machine,
                                request.max_cycles, nullptr)
      .run();
}

// The recording bound of a run within `max_cycles`. Such a run has at most
// max_cycles + 1 cycles and commits at most commit_width steps in each, so
// that product refuses none of them. It is capped at the tools'
// kDefaultStepBound: at the default max_cycles it is ~1.7e10, and a
// program that never halts would record until allocation fails.
std::uint64_t step_bound(std::uint64_t max_cycles, int commit_width) {
  const auto width = static_cast<std::uint64_t>(commit_width);
  if (max_cycles >= kDefaultStepBound / width) return kDefaultStepBound;
  return (max_cycles + 1) * width;
}

}  // namespace

SimStats simulate(const SimRequest& request) {
  if (request.program == nullptr) {
    throw SimError("simulate: request.program is required");
  }
  if (request.trace != nullptr) {
    return run_pipeline(DecodedTrace(*request.trace, *request.program),
                        request);
  }
  // Validated first: the step bound reads commit_width.
  check_machine(request.machine);
  const CommittedTrace trace =
      record_trace(*request.program, request.ext_table,
                   step_bound(request.max_cycles,
                              request.machine.commit_width));
  return run_pipeline(DecodedTrace(trace, *request.program), request);
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
      results[i].stats = run_pipeline(decoded,
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
