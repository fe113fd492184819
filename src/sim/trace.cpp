#include "sim/trace.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <new>
#include <utility>

#include "sim/ucode.hpp"

// Under the sanitizers the block cache would mask use-after-free and
// uninitialized-read bugs by recycling poisoned storage, so it degrades to
// a plain pass-through there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define T1000_COLUMN_CACHE 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define T1000_COLUMN_CACHE 0
#endif
#endif
#ifndef T1000_COLUMN_CACHE
#define T1000_COLUMN_CACHE 1
#endif

namespace t1000 {
namespace detail {
namespace {

// Blocks below the caching floor go straight to operator new: they are
// cheap to allocate and would pollute the buckets. Sizes are rounded up
// to a power of two so a regrown column re-finds the block its previous
// incarnation released.
constexpr std::size_t kMinCachedBytes = std::size_t{1} << 16;  // 64 KiB
constexpr std::size_t kMaxCachedBytes = std::size_t{64} << 20;  // per thread
constexpr int kBuckets = 12;       // 64 KiB .. 128 MiB
constexpr int kBlocksPerBucket = 4;

#if T1000_COLUMN_CACHE
struct ColumnCache {
  struct Bucket {
    void* blocks[kBlocksPerBucket];
    int n = 0;
  };
  Bucket buckets[kBuckets];
  std::size_t cached_bytes = 0;

  ~ColumnCache() {
    for (Bucket& b : buckets) {
      for (int i = 0; i < b.n; ++i) ::operator delete(b.blocks[i]);
    }
  }
};

thread_local ColumnCache g_column_cache;

int bucket_of(std::size_t rounded_bytes) {
  int b = 0;
  for (std::size_t s = kMinCachedBytes; s < rounded_bytes; s <<= 1) ++b;
  return b;
}
#endif  // T1000_COLUMN_CACHE

}  // namespace

void* column_block_acquire(std::size_t bytes) {
#if T1000_COLUMN_CACHE
  if (bytes >= kMinCachedBytes) {
    const std::size_t rounded = std::bit_ceil(bytes);
    const int b = bucket_of(rounded);
    if (b < kBuckets) {
      ColumnCache::Bucket& bucket = g_column_cache.buckets[b];
      if (bucket.n > 0) {
        g_column_cache.cached_bytes -= rounded;
        return bucket.blocks[--bucket.n];
      }
      return ::operator new(rounded);
    }
  }
#endif
  return ::operator new(bytes);
}

void column_block_release(void* p, std::size_t bytes) {
#if T1000_COLUMN_CACHE
  if (bytes >= kMinCachedBytes) {
    const std::size_t rounded = std::bit_ceil(bytes);
    const int b = bucket_of(rounded);
    if (b < kBuckets) {
      ColumnCache::Bucket& bucket = g_column_cache.buckets[b];
      if (bucket.n < kBlocksPerBucket &&
          g_column_cache.cached_bytes + rounded <= kMaxCachedBytes) {
        bucket.blocks[bucket.n++] = p;
        g_column_cache.cached_bytes += rounded;
        return;
      }
    }
  }
#endif
  ::operator delete(p);
}

}  // namespace detail

namespace {

// Local FNV-1a 64: the canonical implementation lives in harness/json.hpp,
// but the sim layer sits below the harness in the link graph and the
// primitive is six lines. Bulk data is folded 8 bytes per round (little-
// endian word injected into the FNV-1a xor/multiply recurrence): byte-wise
// FNV is a strict 1-multiply-per-byte dependency chain that costs more
// than recording a multi-megabyte trace itself. The fingerprint is only
// ever compared against fingerprints computed by the same code, so the
// stride is an implementation detail, not an interchange format.
constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ull;

std::uint64_t fold(std::uint64_t h, std::uint64_t word) {
  return (h ^ word) * kFnvPrime;
}

std::uint64_t fnv(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  while (bytes >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);  // host is little-endian, as sim/memory.cpp
    h = fold(h, word);
    p += 8;
    bytes -= 8;
  }
  for (std::size_t i = 0; i < bytes; ++i) h = fold(h, p[i]);
  return h;
}

// The next 8-byte word of a column of kBytes-wide elements, little-endian.
// Unrolled at compile time: the column folds below are bound by the work
// that generates each element.
template <std::size_t kBytes, typename Next, std::size_t... K>
std::uint64_t next_word(Next& next, std::index_sequence<K...>) {
  std::uint64_t word = 0;
  ((word |= std::uint64_t{next()} << (8 * kBytes * K)), ...);
  return word;
}

// Folds a column of `n` elements of kBytes each, produced in order by
// next(), exactly as fnv() folds the same column materialized — without
// materializing it.
template <std::size_t kBytes, typename Next>
std::uint64_t fold_column(std::size_t n, std::uint64_t h, Next&& next) {
  constexpr std::size_t kPerWord = 8 / kBytes;
  std::size_t i = 0;
  for (; i + kPerWord <= n; i += kPerWord) {
    h = fold(h, next_word<kBytes>(next, std::make_index_sequence<kPerWord>{}));
  }
  for (; i < n; ++i) {
    const std::uint64_t v = next();
    for (std::size_t b = 0; b < kBytes; ++b) h = fold(h, (v >> (8 * b)) & 0xFF);
  }
  return h;
}

// The text fingerprint a trace keeps of the program it was recorded from.
std::uint64_t text_fingerprint(const Program& program) {
  std::uint64_t h = fold(kFnvOffset, program.text.size());
  for (const Instruction& ins : program.text) {
    h = fold(h, static_cast<std::uint64_t>(ins.op) |
                    std::uint64_t{ins.rd} << 8 | std::uint64_t{ins.rs} << 16 |
                    std::uint64_t{ins.rt} << 24 |
                    std::uint64_t{ins.conf} << 32);
    h = fold(h, static_cast<std::uint32_t>(ins.imm));
  }
  return h;
}

// The logical flag bits content_hash() covers, one byte per step.
constexpr std::uint8_t kFlagBranchTaken = 1u << 0;
constexpr std::uint8_t kFlagIsMem = 1u << 1;
constexpr std::uint8_t kFlagSentinel = 1u << 2;

// The control kind of `op` (a sentinel step is kStop: it executes a halt).
ControlKind control_kind(Opcode op) {
  switch (op_kind(op)) {
    case OpKind::kBranch1:
    case OpKind::kBranch2:
      return ControlKind::kConditional;
    case OpKind::kJump:
      return ControlKind::kJump;
    case OpKind::kJumpReg:
      return ControlKind::kJumpReg;
    case OpKind::kHalt:
      return ControlKind::kStop;
    default:
      return ControlKind::kSequential;
  }
}

// Bytes a load or store of `op` accesses; 0 for every other opcode.
std::uint8_t mem_access_bytes(Opcode op) {
  switch (op) {
    case Opcode::kLw:
    case Opcode::kSw:
      return 4;
    case Opcode::kLh:
    case Opcode::kLhu:
    case Opcode::kSh:
      return 2;
    case Opcode::kLb:
    case Opcode::kLbu:
    case Opcode::kSb:
      return 1;
    default:
      return 0;
  }
}

}  // namespace

std::uint64_t CommittedTrace::memory_bytes() const {
  return taken_.capacity() * sizeof(std::uint64_t) +
         mem_addr_.capacity() * sizeof(std::uint32_t) +
         target_.capacity() * sizeof(std::int32_t) +
         index_.capacity() * sizeof(std::int32_t);
}

template <typename T>
TraceWriter::Sink<T> TraceWriter::grow(detail::Column<T>& column,
                                       Sink<T> sink) {
  const std::size_t used =
      column.empty() ? 0 : static_cast<std::size_t>(sink.next - column.data());
  column.resize(std::max(column.size() * 2, (std::size_t{1} << 16) / sizeof(T)));
  return {column.data() + used, column.data() + column.size()};
}
template TraceWriter::Sink<std::int32_t> TraceWriter::grow(
    detail::Column<std::int32_t>&, Sink<std::int32_t>);
template TraceWriter::Sink<std::uint32_t> TraceWriter::grow(
    detail::Column<std::uint32_t>&, Sink<std::uint32_t>);

void TraceWriter::commit_info(const StepInfo& info, bool sentinel) {
  const std::int32_t i = info.index;
  const std::int32_t next = info.next_index;
  const bool taken = info.branch_taken;
  const bool mem = info.is_mem;
  const std::uint32_t addr = info.mem_addr;
  switch (sentinel ? ControlKind::kStop : control_kind(info.ins.op)) {
    case ControlKind::kSequential:
      return commit<ControlKind::kSequential>(i, next, taken, mem, addr);
    case ControlKind::kConditional:
      return commit<ControlKind::kConditional>(i, next, taken, mem, addr);
    case ControlKind::kJump:
      return commit<ControlKind::kJump>(i, next, taken, mem, addr);
    case ControlKind::kJumpReg:
      return commit<ControlKind::kJumpReg>(i, next, taken, mem, addr);
    case ControlKind::kStop:
      return commit<ControlKind::kStop>(i, next, taken, mem, addr);
  }
}

void TraceWriter::finish(const Program& program, std::uint32_t checksum) {
  CommittedTrace& t = *trace_;
  const std::size_t n =
      t.index_.empty() ? 0 : static_cast<std::size_t>(index_.next - t.index_.data());
  const std::size_t addrs =
      t.mem_addr_.empty() ? 0 : static_cast<std::size_t>(addr_.next - t.mem_addr_.data());
  if (num_bits_ > 0) t.taken_.push_back(bits_);
  // One element of padding behind the address stream, for the cursor; the
  // index column's spare slot repeats the last index, which is the last
  // step's successor (halt and the sentinel are their own).
  t.mem_addr_.resize(addrs + 1);
  t.mem_addr_[addrs] = 0;
  t.mem_addr_.shrink_to_fit();
  t.taken_.shrink_to_fit();
  t.target_.shrink_to_fit();
  t.index_.resize(n + 1);
  t.index_[n] = n > 0 ? t.index_[n - 1] : 0;
  t.finalize(program, checksum);
}

// Regenerates the logical columns from the index column, each row's static
// bytes and the streams, folding them into the hash in the order the dense
// format stored them, then frees the index column.
void CommittedTrace::finalize(const Program& program, std::uint32_t checksum) {
  const std::size_t n = index_.size() - 1;  // finish() added a spare slot
  size_ = n;
  first_ = n > 0 ? index_[0] : 0;
  checksum_ = checksum;
  program_size_ = program.size();
  program_hash_ = text_fingerprint(program);

  // Per row: the size column's byte (non-zero when the step draws an
  // address), the flag column's static bits, and whether the step draws a
  // taken bit.
  struct RowBytes {
    std::uint8_t size;
    std::uint8_t flags;
    bool cond;
  };
  const std::int32_t rows = program.size();
  std::vector<RowBytes> row_bytes(static_cast<std::size_t>(rows) + 1);
  for (std::int32_t i = 0; i <= rows; ++i) {
    const Opcode op =
        i < rows ? program.text[static_cast<std::size_t>(i)].op : Opcode::kHalt;
    const ControlKind kind = control_kind(op);
    const std::uint8_t size = mem_access_bytes(op);
    std::uint8_t flags = size != 0 ? kFlagIsMem : 0;
    if (kind == ControlKind::kJump || kind == ControlKind::kJumpReg) {
      flags |= kFlagBranchTaken;
    }
    if (i == rows) flags |= kFlagSentinel;
    row_bytes[static_cast<std::size_t>(i)] = {
        size, flags, kind == ControlKind::kConditional};
  }
  const RowBytes* const row = row_bytes.data();
  const std::int32_t* const index = index_.data();

  std::uint64_t h = kFnvOffset;
  const std::uint64_t steps = n;
  h = fnv(&steps, sizeof steps, h);
  h = fnv(index, n * sizeof(std::int32_t), h);      // index
  h = fnv(index + 1, n * sizeof(std::int32_t), h);  // next index
  // Each stream read below is behind a test of the row: the branch follows
  // the program's control flow, which the host predicts, and it measured
  // faster than reading the streams unconditionally.
  {
    const std::int32_t* i = index;
    const std::uint32_t* addr = mem_addr_.data();
    h = fold_column<4>(n, h, [&] {
      return row[*i++].size != 0 ? *addr++ : std::uint32_t{0};
    });
  }
  {
    const std::int32_t* i = index;
    h = fold_column<1>(n, h, [&] { return row[*i++].size; });
  }
  {
    const std::int32_t* i = index;
    const std::uint64_t* taken = taken_.data();
    std::size_t bit = 0;
    h = fold_column<1>(n, h, [&] {
      const RowBytes& r = row[*i++];
      std::uint8_t flags = r.flags;
      if (r.cond) {
        flags |= (taken[bit / 64] >> (bit % 64)) & kFlagBranchTaken;
        ++bit;
      }
      return flags;
    });
  }
  h = fnv(&checksum_, sizeof checksum_, h);
  content_hash_ = h;
  detail::Column<std::int32_t>().swap(index_);
}

DecodeTable::DecodeTable(const Program& program) {
  const std::int32_t n = program.size();
  rows_.reserve(static_cast<std::size_t>(n) + 1);
  for (std::int32_t i = 0; i <= n; ++i) {
    const Instruction ins =
        i < n ? program.text[static_cast<std::size_t>(i)] : make_halt();
    DecodeRow row;
    row.pc = program.pc_of(i);
    row.index = i;
    row.srcs = src_regs(ins);
    row.conf = ins.conf;
    row.op = ins.op;
    row.fu = fu_class(ins.op);
    const DstRegs dsts = dst_regs(ins);
    if (dsts.count > 0) row.dst = static_cast<std::int8_t>(dsts.reg[0]);
    if (dsts.count > 1) row.dst2 = static_cast<std::int8_t>(dsts.reg[1]);
    // The halt opcode never consults the predictor (matching the fetch
    // stage's historical is_control && !kHalt test).
    row.is_ctrl = is_control(ins.op) && ins.op != Opcode::kHalt;
    row.is_store = is_store(ins.op);
    row.is_ext = ins.op == Opcode::kExt;
    row.sentinel = i == n;
    row.control = control_kind(ins.op);
    row.mem_size = mem_access_bytes(ins.op);
    if (row.control == ControlKind::kConditional ||
        row.control == ControlKind::kJump) {
      row.target = ins.imm;
    }
    rows_.push_back(row);
  }
}

DecodedTrace::DecodedTrace(const CommittedTrace& trace, const Program& program)
    : trace_(&trace), table_(program) {
  const std::uint64_t text = text_fingerprint(program);
  if (text != trace.program_hash_) {
    char msg[192];
    std::snprintf(msg, sizeof msg,
                  "replay: the trace was recorded from another program "
                  "(%d instructions, text fingerprint %016llx), not this one "
                  "(%d instructions, text fingerprint %016llx)",
                  trace.program_size_,
                  static_cast<unsigned long long>(trace.program_hash_),
                  program.size(), static_cast<unsigned long long>(text));
    throw SimError(msg);
  }
}

CommittedTrace record_trace(const Program& program,
                            const ExtInstTable* ext_table,
                            std::uint64_t max_steps, ExecMode mode) {
  if (mode == ExecMode::kUcode) {
    const UopProgram ucode = UopProgram::build(program, ext_table);
    return record_trace(ucode, max_steps);
  }
  Executor exec(program, ext_table, ExecMode::kReference);
  CommittedTrace trace;
  TraceWriter writer(trace);
  while (!exec.halted()) {
    if (exec.steps_executed() >= max_steps) {
      throw SimError("record_trace: program did not halt within step bound");
    }
    const StepInfo info = exec.step();
    writer.commit_info(info, /*sentinel=*/info.index >= program.size());
  }
  writer.finish(program, exec.reg(kRegV0));
  return trace;
}

}  // namespace t1000
