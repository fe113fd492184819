#include "sim/trace.hpp"

#include <bit>
#include <cstring>
#include <new>

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

std::uint64_t fnv(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  while (bytes >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);  // host is little-endian, as sim/memory.cpp
    h ^= word;
    h *= kFnvPrime;
    p += 8;
    bytes -= 8;
  }
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

template <typename T, typename A>
std::uint64_t fnv_vec(const std::vector<T, A>& v, std::uint64_t h) {
  return v.empty() ? h : fnv(v.data(), v.size() * sizeof(T), h);
}

}  // namespace

StepInfo CommittedTrace::step_at(std::size_t i, const Program& program) const {
  const auto flags = static_cast<std::uint8_t>(flags_[i]);
  StepInfo info;
  info.index = index_[i];
  info.next_index = next_index_[i];
  info.ins = (flags & kFlagSentinel)
                 ? make_halt()
                 : program.text[static_cast<std::size_t>(index_[i])];
  info.is_mem = (flags & kFlagIsMem) != 0;
  info.mem_addr = mem_addr_[i];
  info.mem_size = static_cast<std::uint8_t>(mem_size_[i]);
  info.branch_taken = (flags & kFlagBranchTaken) != 0;
  return info;
}

std::uint64_t CommittedTrace::memory_bytes() const {
  return index_.capacity() * sizeof(std::int32_t) +
         next_index_.capacity() * sizeof(std::int32_t) +
         mem_addr_.capacity() * sizeof(std::uint32_t) +
         mem_size_.capacity() * sizeof(detail::TraceByte) +
         flags_.capacity() * sizeof(detail::TraceByte);
}

void CommittedTrace::append(const StepInfo& info, bool sentinel) {
  std::uint8_t flags = 0;
  if (info.branch_taken) flags |= kFlagBranchTaken;
  if (info.is_mem) flags |= kFlagIsMem;
  if (sentinel) flags |= kFlagSentinel;
  index_.push_back(info.index);
  next_index_.push_back(info.next_index);
  mem_addr_.push_back(info.mem_addr);
  mem_size_.push_back(detail::TraceByte{info.mem_size});
  flags_.push_back(detail::TraceByte{flags});
}

void CommittedTrace::finalize(std::uint32_t checksum) {
  checksum_ = checksum;
  std::uint64_t h = kFnvOffset;
  const std::uint64_t n = index_.size();
  h = fnv(&n, sizeof n, h);
  h = fnv_vec(index_, h);
  h = fnv_vec(next_index_, h);
  h = fnv_vec(mem_addr_, h);
  h = fnv_vec(mem_size_, h);
  h = fnv_vec(flags_, h);
  h = fnv(&checksum_, sizeof checksum_, h);
  content_hash_ = h;
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
    rows_.push_back(row);
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
  while (!exec.halted()) {
    if (exec.steps_executed() >= max_steps) {
      throw SimError("record_trace: program did not halt within step bound");
    }
    const StepInfo info = exec.step();
    trace.append(info, /*sentinel=*/info.index >= program.size());
  }
  trace.finalize(exec.reg(kRegV0));
  return trace;
}

}  // namespace t1000
