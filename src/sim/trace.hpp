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
// Most of what the pipeline observes is static per instruction: whether a
// step touches memory and how wide, and where control goes next unless a
// branch decides. So the recording keeps only the three dynamic facts, as
// sparse streams next to the step count and the entry index:
//
//  * one taken bit per conditional-branch step, 64 to a word;
//  * one address per load or store step;
//  * one target per register-jump (`jr`/`jalr`) step;
//
// about 0.6 bytes per committed step on the bundled workloads. Replay
// rebuilds every step from its DecodeTable row (the row's ControlKind says
// which stream, if any, the step draws from), so a trace is only
// meaningful next to the exact program it was recorded from: it keeps a
// fingerprint of that program's text, and DecodedTrace refuses any other.
// The architectural values (operand and result registers) are not
// captured at all: the pipeline never reads them.
//
// `content_hash()` fingerprints the logical step stream — the step count,
// then the index, successor-index, address, access-size and flag of every
// step as five dense columns, then the checksum — so callers can key caches
// on it. Those columns are not stored: finalize() regenerates them from a
// transient index column kept only while recording, folding each word into
// the hash as it is generated, and then frees that column.
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

}  // namespace detail

// Bump when the recorded projection of StepInfo changes; part of the
// result-cache identity (see harness/cache.hpp) so stale memoized results
// can never be replayed against a new format. A change to how the
// projection is stored that keeps content_hash() over the same logical
// columns does not bump it.
inline constexpr int kTraceFormatVersion = 1;

// How a committed step's successor index follows from its instruction.
enum class ControlKind : std::uint8_t {
  kSequential,   // index + 1
  kConditional,  // the static target when taken (one recorded bit), else
                 // index + 1
  kJump,         // the static target (j, jal)
  kJumpReg,      // a recorded target (jr, jalr)
  kStop,         // itself: halt, and the off-the-end sentinel
};

class CommittedTrace {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Final $v0 of the functional run — the workload checksum.
  std::uint32_t checksum() const { return checksum_; }

  // FNV-1a fingerprint of the logical step stream (see the file comment).
  std::uint64_t content_hash() const { return content_hash_; }

  // Heap footprint of the streams, for observability.
  std::uint64_t memory_bytes() const;

 private:
  friend class TraceWriter;
  friend class DecodedTrace;
  friend class TraceCursor;

  void finalize(const Program& program, std::uint32_t checksum);

  std::size_t size_ = 0;
  std::int32_t first_ = 0;  // index of the first step (the entry pc)
  // The streams. mem_addr_ carries one element of padding past its data,
  // so the cursor loads the next address without a test.
  detail::Column<std::uint64_t> taken_;
  detail::Column<std::uint32_t> mem_addr_;
  detail::Column<std::int32_t> target_;
  // Every step's index, only between recording and finalize().
  detail::Column<std::int32_t> index_;
  // The program the trace was recorded from: its length and a
  // fingerprint of its text.
  std::int32_t program_size_ = 0;
  std::uint64_t program_hash_ = 0;
  std::uint32_t checksum_ = 0;
  std::uint64_t content_hash_ = 0;
};

// Appends committed steps to a trace; both interpreters record through it.
// A value type holding raw stream pointers: the threaded interpreter keeps
// one in a local whose address never escapes (sim/ucode.cpp), so its fields
// stay in registers across steps. Growth goes through the trace's columns.
class TraceWriter {
 public:
  explicit TraceWriter(CommittedTrace& trace) : trace_(&trace) {}

  // One step at `index`, whose instruction has control kind `K`; `next`
  // is its successor, `taken` its branch outcome, `addr` its address when
  // `is_mem`. Each handler of the threaded interpreter passes a constant
  // `K` and `is_mem`, so only the stream pushes it needs survive inlining.
  template <ControlKind K>
  void commit(std::int32_t index, std::int32_t next, bool taken, bool is_mem,
              std::uint32_t addr) {
    if (index_.next == index_.end) [[unlikely]] {
      index_ = grow(trace_->index_, index_);
    }
    *index_.next++ = index;
    if (is_mem) {
      if (addr_.next == addr_.end) [[unlikely]] {
        addr_ = grow(trace_->mem_addr_, addr_);
      }
      *addr_.next++ = addr;
    }
    if constexpr (K == ControlKind::kConditional) {
      bits_ |= std::uint64_t{taken} << num_bits_;
      if (++num_bits_ == 64) [[unlikely]] {
        trace_->taken_.push_back(bits_);
        bits_ = 0;
        num_bits_ = 0;
      }
    } else if constexpr (K == ControlKind::kJumpReg) {
      trace_->target_.push_back(next);
    }
  }

  // A step the reference interpreter executed, classified by its opcode.
  void commit_info(const StepInfo& info, bool sentinel);

  // Trims and pads the streams, then seals the trace: its checksum, its
  // program's text fingerprint and its content hash. `program` must be the
  // program the steps were recorded from.
  void finish(const Program& program, std::uint32_t checksum);

 private:
  template <typename T>
  struct Sink {
    T* next = nullptr;
    T* end = nullptr;
  };
  template <typename T>
  static Sink<T> grow(detail::Column<T>& column, Sink<T> sink);

  CommittedTrace* trace_;
  Sink<std::int32_t> index_;
  Sink<std::uint32_t> addr_;
  std::uint64_t bits_ = 0;  // taken bits not yet pushed, oldest lowest
  unsigned num_bits_ = 0;
};

// The functional step bound of the tools (t1000-sim, t1000-run, t1000-opt,
// t1000-verify) and the cap on simulate()'s trace-less recording: a
// program that does not halt within it is a SimError, not a recording that
// grows until memory runs out.
inline constexpr std::uint64_t kDefaultStepBound = std::uint64_t{1} << 26;

// Runs `program` to completion on a fresh Executor and records the
// committed stream. Throws SimError when the program does not halt within
// `max_steps` (mirroring the harness's functional-run bound). The default
// kUcode mode pre-decodes and records through the threaded interpreter's
// no-StepInfo fast path; kReference records through the original
// interpreter. Both append through TraceWriter.
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
// step is a pure function of the step's instruction index except the
// dynamic facts the trace records (branch outcome, address, register-jump
// target). So the static part is decoded once per program into a table
// with one row per instruction, and every replayed step is a slim record
// pointing at its row — the timing-side counterpart of the UopProgram
// (sim/ucode.hpp).
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
  ControlKind control = ControlKind::kSequential;
  std::uint8_t mem_size = 0;    // bytes accessed; 0 = not a memory step
  // Successor of a taken conditional branch, or of a j/jal; 0 otherwise.
  std::int32_t target = 0;
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

// One committed step as TraceCursor hands it to the timing pipeline's
// fetch stage: its static row plus the dynamic fields.
struct DecodedStep {
  const DecodeRow* row = nullptr;
  std::int32_t next_index = 0;  // successor index
  std::uint32_t mem_addr = 0;
  std::uint8_t mem_size = 0;
  bool taken = false;           // branch outcome
};

// A committed trace next to its program's decode table: what every replay,
// single or batched, steps through. `trace` must outlive it. Throws
// SimError when `program` is not the program the trace was recorded from:
// its rows would send the cursor through the wrong successors and streams.
class DecodedTrace {
 public:
  DecodedTrace(const CommittedTrace& trace, const Program& program);

  const CommittedTrace& trace() const { return *trace_; }
  const DecodeTable& table() const { return table_; }

  // Heap footprint of the decode table (the trace's own streams are
  // CommittedTrace::memory_bytes()).
  std::uint64_t memory_bytes() const { return table_.memory_bytes(); }

 private:
  const CommittedTrace* trace_;
  DecodeTable table_;
};

// Walks a decoded trace for the timing pipeline's fetch stage (see
// uarch/timing.cpp): halted / next_pc / step. Any number of cursors may
// walk one DecodedTrace; it must outlive them.
//
// Each step's successor is index + 1 unless its row's control kind says
// otherwise. The kind is tested with a branch: it is fixed per instruction,
// so the host predicts it, and the index chain need not wait for the row.
class TraceCursor {
 public:
  explicit TraceCursor(const DecodedTrace& decoded)
      : rows_(&decoded.table().row(0)),
        taken_(decoded.trace().taken_.data()),
        addr_(decoded.trace().mem_addr_.data()),
        target_(decoded.trace().target_.data()),
        index_(decoded.trace().first_),
        end_(decoded.trace().size()) {}

  bool halted() const { return pos_ >= end_; }
  std::uint32_t next_pc() const { return rows_[index_].pc; }
  DecodedStep step() {
    const DecodeRow* row = rows_ + index_;
    ++pos_;
    std::int32_t next = index_ + 1;
    bool taken = false;
    if (row->control != ControlKind::kSequential) [[unlikely]] {
      switch (row->control) {
        case ControlKind::kConditional:
          if (mask_ == 0) {
            bits_ = *taken_++;
            mask_ = 1;
          }
          taken = (bits_ & mask_) != 0;
          mask_ <<= 1;
          if (taken) next = row->target;
          break;
        case ControlKind::kJump:
          taken = true;
          next = row->target;
          break;
        case ControlKind::kJumpReg:
          taken = true;
          next = *target_++;
          break;
        case ControlKind::kStop:
          next = index_;
          break;
        case ControlKind::kSequential:
          break;
      }
    }
    // The address stream is padded, so the load needs no test.
    const std::uint8_t size = row->mem_size;
    const std::uint32_t addr = *addr_;
    addr_ += size != 0;
    index_ = next;
    return {.row = row,
            .next_index = next,
            .mem_addr = size != 0 ? addr : 0,
            .mem_size = size,
            .taken = taken};
  }

 private:
  const DecodeRow* rows_;
  const std::uint64_t* taken_;
  const std::uint32_t* addr_;
  const std::int32_t* target_;
  std::uint64_t bits_ = 0;  // the current word of taken bits
  std::uint64_t mask_ = 0;  // its next bit; 0 = load the next word
  std::int32_t index_;      // the next step's instruction index
  std::size_t end_;         // trace size, read once per fetched instruction
  std::size_t pos_ = 0;
};

}  // namespace t1000
