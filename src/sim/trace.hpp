// Committed-trace capture and replay.
//
// The timing model assumes perfect dependence information and (by default)
// perfect branch prediction: the fetched path and the committed path
// coincide, so the committed instruction stream is a pure function of the
// (program, EXT table, step bound) triple and is *independent of the
// machine configuration*. That makes it profitable to run the functional
// `Executor` once, capture everything the timing pipeline observes per
// step, and replay the recording into any number of timing simulations —
// a grid sweep over N machine configurations pays functional execution
// once instead of N times.
//
// The recording keeps only the timing-visible projection of `StepInfo`
// (instruction index, successor index, memory address/size, branch
// outcome) in structure-of-arrays form, 14 bytes per committed step. The
// architectural values (operand and result registers) are deliberately
// not captured: the pipeline never reads them, and dropping them keeps
// long traces compact. Instructions are rebuilt from the program text on
// replay, so a trace is only meaningful next to the exact program it was
// recorded from — `content_hash()` fingerprints the stream so callers can
// key caches on it.
#pragma once

#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "asmkit/program.hpp"
#include "isa/extdef.hpp"
#include "isa/instruction.hpp"
#include "isa/opcode.hpp"
#include "sim/executor.hpp"

namespace t1000 {

namespace detail {

// Per-thread recycler for the trace columns' backing blocks. Recording a
// multi-megabyte trace and destroying it returns the columns to the
// system allocator, which (past its trim threshold) hands the pages back
// to the OS — so a workload that records traces in a loop (the harness
// grid, the benchmarks) pays a soft page fault per 4 KiB of trace on
// every single recording. Keeping a handful of large blocks per thread
// turns that into plain pointer reuse. Small blocks pass through
// untouched; the cache is bounded (kMaxCachedBytes per thread) and
// released at thread exit.
void* column_block_acquire(std::size_t bytes);
void column_block_release(void* p, std::size_t bytes);

// std::allocator variant with two trace-recorder properties: storage
// comes from the per-thread block cache above, and value-less
// constructions default-initialize — resizing a column of trivial
// elements reserves space without writing zeros the recorder is about to
// overwrite anyway. Only the trace columns below use it; every element
// the trace exposes has been stored by the recorder before finalize()
// seals the object.
template <typename T>
struct NoInitAllocator {
  using value_type = T;

  NoInitAllocator() = default;
  template <typename U>
  NoInitAllocator(const NoInitAllocator<U>&) {}  // NOLINT(runtime/explicit)

  T* allocate(std::size_t n) {
    return static_cast<T*>(column_block_acquire(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) {
    column_block_release(p, n * sizeof(T));
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) == 0) {
      ::new (static_cast<void*>(p)) U;
    } else {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  }
  friend bool operator==(const NoInitAllocator&, const NoInitAllocator&) {
    return true;
  }
};

template <typename T>
using Column = std::vector<T, NoInitAllocator<T>>;

// Byte-sized column element that is deliberately NOT a character type:
// stores through a `TraceByte*` cannot alias unrelated objects the way
// `std::uint8_t*` (unsigned char) stores can, so the recorder's per-step
// byte-column writes don't force the optimizer to spill and reload its
// cursor state around every committed step.
enum class TraceByte : std::uint8_t {};

}  // namespace detail

// Bump when the recorded projection of StepInfo changes; part of the
// result-cache identity (see harness/cache.hpp) so stale memoized results
// can never be replayed against a new format.
inline constexpr int kTraceFormatVersion = 1;

class CommittedTrace {
 public:
  // Per-step flag bits packed into flags_.
  static constexpr std::uint8_t kFlagBranchTaken = 1u << 0;
  static constexpr std::uint8_t kFlagIsMem = 1u << 1;
  // The off-the-end halt sentinel: a step whose index is one past the text
  // segment (a `jr $ra` out of the entry function). It carries a synthetic
  // halt instruction that is not present in the program text.
  static constexpr std::uint8_t kFlagSentinel = 1u << 2;

  std::size_t size() const { return index_.size(); }
  bool empty() const { return index_.empty(); }

  // Instruction index of step `i` (the executor's pc before the step).
  std::int32_t index_at(std::size_t i) const { return index_[i]; }

  // Rebuilds the timing-visible StepInfo for step `i`. `program` must be
  // the program the trace was recorded from; the architectural value
  // fields (src_vals/result) are left zero, see the file comment.
  StepInfo step_at(std::size_t i, const Program& program) const;

  // Final $v0 of the functional run — the workload checksum.
  std::uint32_t checksum() const { return checksum_; }

  // FNV-1a fingerprint of the whole stream (arrays, length, checksum).
  std::uint64_t content_hash() const { return content_hash_; }

  // Heap footprint of the SoA arrays, for observability.
  std::uint64_t memory_bytes() const;

 private:
  friend CommittedTrace record_trace(const Program& program,
                                     const ExtInstTable* ext_table,
                                     std::uint64_t max_steps, ExecMode mode);
  friend CommittedTrace record_trace(const UopProgram& ucode,
                                     std::uint64_t max_steps);
  // The threaded interpreter's record policy appends SoA rows directly,
  // skipping StepInfo materialization (sim/ucode.cpp).
  friend struct UcodeImpl;
  // Replay reads the columns directly, also without a StepInfo.
  friend class TraceCursor;

  void append(const StepInfo& info, bool sentinel);
  void finalize(std::uint32_t checksum);

  detail::Column<std::int32_t> index_;
  detail::Column<std::int32_t> next_index_;
  detail::Column<std::uint32_t> mem_addr_;
  detail::Column<detail::TraceByte> mem_size_;
  detail::Column<detail::TraceByte> flags_;
  std::uint32_t checksum_ = 0;
  std::uint64_t content_hash_ = 0;
};

// Runs `program` to completion on a fresh Executor and records the
// committed stream. Throws SimError when the program does not halt within
// `max_steps` (mirroring the harness's functional-run bound). The default
// kUcode mode pre-decodes and records through the threaded interpreter's
// no-StepInfo fast path; kReference records through the original
// interpreter (the differential suite pins the two byte-identical).
CommittedTrace record_trace(const Program& program,
                            const ExtInstTable* ext_table,
                            std::uint64_t max_steps,
                            ExecMode mode = ExecMode::kUcode);

// Records from an already-decoded program — what the harness uses once a
// preparation has built (and cached) the UopProgram.
CommittedTrace record_trace(const UopProgram& ucode, std::uint64_t max_steps);

// --- the static decode table ---
//
// Everything the timing pipeline's decode stage derives from a committed
// step is a pure function of the step's instruction index except five
// dynamic facts (index, next_index, mem_addr, mem_size, branch outcome).
// So the static part is decoded once per program into a table with one row
// per instruction, and every replayed step is a slim record pointing at
// its row — the timing-side counterpart of the UopProgram (sim/ucode.hpp).
struct DecodeRow {
  std::uint32_t pc = 0;         // byte address of the instruction (I-cache key)
  std::int32_t index = 0;       // instruction index (predictor key, trace pc)
  SrcRegs srcs;                 // register operands read (renaming)
  ConfId conf = kInvalidConf;   // EXT configuration
  Opcode op = Opcode::kNop;
  FuClass fu = FuClass::kNone;  // issue port class of the opcode
  std::int8_t dst = -1;         // register written; -1 = none
  std::int8_t dst2 = -1;        // second register written (MIMO EXT only)
  bool is_ctrl = false;         // consults the branch predictor
  bool is_store = false;        // participates in store->load ordering
  bool is_ext = false;          // requests a PFU configuration at decode
  bool sentinel = false;        // the off-the-end halt row, never fetched
};

// Rows 0 .. program.size()-1 decode the program text; the extra row at
// program.size() is the off-the-end halt sentinel (make_halt()), the only
// instruction index a committed step can carry beyond the text.
class DecodeTable {
 public:
  explicit DecodeTable(const Program& program);

  const DecodeRow& row(std::int32_t index) const {
    return rows_[static_cast<std::size_t>(index)];
  }
  std::size_t size() const { return rows_.size(); }

  // Heap footprint of the rows, for observability.
  std::uint64_t memory_bytes() const {
    return rows_.capacity() * sizeof(DecodeRow);
  }

 private:
  std::vector<DecodeRow> rows_;
};

// One committed step as a step source hands it to the fetch stage: its
// static row plus the dynamic fields.
struct DecodedStep {
  const DecodeRow* row = nullptr;
  std::int32_t next_index = 0;  // successor index
  std::uint32_t mem_addr = 0;
  std::uint8_t mem_size = 0;
  bool taken = false;           // branch outcome
};

// A committed trace next to its program's decode table: what every replay,
// single or batched, steps through. `trace` must outlive it.
class DecodedTrace {
 public:
  DecodedTrace(const CommittedTrace& trace, const Program& program)
      : trace_(&trace), table_(program) {}

  const CommittedTrace& trace() const { return *trace_; }
  const DecodeTable& table() const { return table_; }

  // Heap footprint of the decode table (the trace's own columns are
  // CommittedTrace::memory_bytes()).
  std::uint64_t memory_bytes() const { return table_.memory_bytes(); }

 private:
  const CommittedTrace* trace_;
  DecodeTable table_;
};

// Presents a decoded trace through the step-source interface the timing
// pipeline consumes (see uarch/timing.cpp): halted / next_pc / step. Any
// number of cursors may walk one DecodedTrace; it must outlive them.
class TraceCursor {
 public:
  explicit TraceCursor(const DecodedTrace& decoded)
      : trace_(&decoded.trace()),
        table_(&decoded.table()),
        end_(decoded.trace().size()) {}

  bool halted() const { return pos_ >= end_; }
  std::uint32_t next_pc() const {
    return table_->row(trace_->index_[pos_]).pc;
  }
  DecodedStep step() {
    const std::size_t i = pos_++;
    return {.row = &table_->row(trace_->index_[i]),
            .next_index = trace_->next_index_[i],
            .mem_addr = trace_->mem_addr_[i],
            .mem_size = static_cast<std::uint8_t>(trace_->mem_size_[i]),
            .taken = (static_cast<std::uint8_t>(trace_->flags_[i]) &
                      CommittedTrace::kFlagBranchTaken) != 0};
  }

 private:
  const CommittedTrace* trace_;
  const DecodeTable* table_;
  std::size_t end_;  // trace size, read once per fetched instruction
  std::size_t pos_ = 0;
};

}  // namespace t1000
