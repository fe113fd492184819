#include "sim/ucode.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <type_traits>
#include <vector>

#include "isa/alu.hpp"
#include "sim/executor.hpp"
#include "sim/profiler.hpp"
#include "sim/trace.hpp"

// The dispatch loop is computed goto: one indirect branch per handler,
// which lets the host branch predictor learn per-uop successor patterns.
// Labels as values are a GCC/Clang extension; there is no fallback loop.
#if !defined(__GNUC__) && !defined(__clang__)
#error "the uop interpreter needs labels as values (GCC or Clang)"
#endif

namespace t1000 {
namespace {

// UopKind mirrors Opcode entry-for-entry over the regular instructions, so
// lowering a well-formed instruction is a cast. Anchor the correspondence;
// a reorder of either enum trips these at compile time.
static_assert(static_cast<int>(UopKind::kAddu) ==
              static_cast<int>(Opcode::kAddu));
static_assert(static_cast<int>(UopKind::kSll) ==
              static_cast<int>(Opcode::kSll));
static_assert(static_cast<int>(UopKind::kLui) ==
              static_cast<int>(Opcode::kLui));
static_assert(static_cast<int>(UopKind::kSb) == static_cast<int>(Opcode::kSb));
static_assert(static_cast<int>(UopKind::kJalr) ==
              static_cast<int>(Opcode::kJalr));
static_assert(static_cast<int>(UopKind::kExt) ==
              static_cast<int>(Opcode::kExt));

bool regs_in_range(const Instruction& ins) {
  return ins.rd < kNumRegs && ins.rs < kNumRegs && ins.rt < kNumRegs;
}

// Lowers one instruction. `size` bounds static control targets: anything
// the fast path would have to range-check dynamically anyway (or that the
// reference interpreter rejects with a specific error) becomes kInterp,
// which replays that single step through the reference implementation.
Uop lower(const Instruction& ins, std::int32_t size,
          const ExtInstTable* table) {
  Uop u;
  u.rd = ins.rd;
  u.rs = ins.rs;
  u.rt = ins.rt;
  if (!regs_in_range(ins)) {
    u.kind = UopKind::kInterp;
    return u;
  }
  u.kind = static_cast<UopKind>(static_cast<std::uint8_t>(ins.op));
  switch (op_kind(ins.op)) {
    case OpKind::kAlu3:
      break;
    case OpKind::kShiftImm:
      // eval_alu masks the amount at run time; bake the mask in.
      u.imm = ins.imm & 31;
      break;
    case OpKind::kAluImm:
      u.imm = static_cast<std::int32_t>(extend_imm(ins.op, ins.imm));
      break;
    case OpKind::kLui:
      u.imm = static_cast<std::int32_t>(
          static_cast<std::uint32_t>(ins.imm & 0xFFFF) << 16);
      break;
    case OpKind::kLoad:
    case OpKind::kStore:
      u.imm = ins.imm;
      break;
    case OpKind::kBranch2:
    case OpKind::kBranch1:
    case OpKind::kJump:
      // A taken transfer to [0, size] is legal ([size] dispatches the
      // sentinel). Anything else throws in the reference interpreter —
      // and an *untaken* branch with a bad target does not, so the
      // distinction must be made per step: defer to it.
      if (ins.imm < 0 || ins.imm > size) {
        u.kind = UopKind::kInterp;
        return u;
      }
      u.target = ins.imm;
      break;
    case OpKind::kJumpReg:
    case OpKind::kNop:
    case OpKind::kHalt:
      break;
    case OpKind::kExt:
      if (table == nullptr || ins.conf >= table->size()) {
        // "EXT with unknown Conf id": reference-path error semantics.
        u.kind = UopKind::kInterp;
        return u;
      }
      {
        const ExtInstDef& def = table->at(ins.conf);
        if (def.num_inputs() > 2 || def.num_outputs() > 1) {
          // MIMO EXTs don't fit the 12-byte uop's two-source/one-dest
          // shape; replay the step through the reference interpreter so
          // both execution modes stay lockstep-identical.
          u.kind = UopKind::kInterp;
          return u;
        }
      }
      u.imm = ins.conf;
      break;
  }
  return u;
}

}  // namespace

std::string_view uop_kind_name(UopKind kind) {
  switch (kind) {
    case UopKind::kSentinel:
      return "sentinel";
    case UopKind::kInterp:
      return "interp";
    case UopKind::kNumUopKinds:
      return "?";
    default:
      // Regular uops share the opcode's mnemonic (the cast is the inverse
      // of lower()'s, anchored by the static_asserts above).
      return mnemonic(static_cast<Opcode>(static_cast<std::uint8_t>(kind)));
  }
}

UopProgram UopProgram::build(const Program& program,
                             const ExtInstTable* table) {
  UopProgram up;
  up.program = &program;
  up.table = table;
  const auto size = static_cast<std::int32_t>(program.size());
  up.uops.reserve(static_cast<std::size_t>(size) + 1);
  for (const Instruction& ins : program.text) {
    up.uops.push_back(lower(ins, size, table));
  }
  Uop sentinel;
  sentinel.kind = UopKind::kSentinel;
  up.uops.push_back(sentinel);
  return up;
}

std::string disassemble(const UopProgram& ucode) {
  std::string out;
  char line[128];
  for (std::size_t i = 0; i < ucode.uops.size(); ++i) {
    const Uop& u = ucode.uops[i];
    const int n = std::snprintf(
        line, sizeof line,
        "  %4zu: %-8s rd=%-2u rs=%-2u rt=%-2u imm=%-11d target=%d\n", i,
        std::string(uop_kind_name(u.kind)).c_str(), u.rd, u.rs, u.rt, u.imm,
        u.target);
    out.append(line, static_cast<std::size_t>(n));
  }
  return out;
}

// ---------------------------------------------------------------------------
// The dispatch loop.
//
// One loop body serves step()/run()/record_trace()/profile_program()
// through a Policy with two hooks:
//
//   bool begin(std::uint64_t steps)  — before each dispatch; false stops
//     the loop (run bound reached, single step done); the record and
//     profile variants throw SimError on a blown step bound instead,
//     matching the reference loops.
//   void commit(kind, ...)           — after each committed step, with its
//     control kind and the full observable projection; each policy keeps
//     what it needs (record appends to the trace's streams, profile folds
//     counts and widths, run counts, step materializes a StepInfo) and
//     inlining dead-code-eliminates the rest.
//
// Executor state lives in locals (pc, steps) for the duration; a thrown
// SimError/MemError writes them back before propagating, which leaves the
// executor in exactly the state the reference interpreter would (a
// throwing step never advances pc_ or steps_, but partial register/memory
// effects — e.g. jalr's link write before a wild-jump fault — stay).

// Each policy hands the loop a by-value Cursor holding its hot state; the
// loop syncs the cursor back at exit. The indirection is load-bearing for
// performance: the interpreter's own stores (register file, simulated
// memory pages — both reachable through char-typed pointers) could alias
// any state behind the Policy reference, so commit state kept there is
// reloaded from memory on every committed step. A cursor that is a local
// of execute() whose address never escapes is provably unaliased, and the
// optimizer keeps its fields in registers across steps.

namespace {

// Each handler passes its instruction's control kind to commit() as a
// compile-time argument, so the record policy pushes a taken bit, an
// address or a target with no per-step lookup.
template <ControlKind K>
using Kind = std::integral_constant<ControlKind, K>;
constexpr Kind<ControlKind::kSequential> kSeq{};
constexpr Kind<ControlKind::kConditional> kCond{};
constexpr Kind<ControlKind::kJump> kJump{};
constexpr Kind<ControlKind::kJumpReg> kJumpReg{};
constexpr Kind<ControlKind::kStop> kStop{};

}  // namespace

struct UcodeImpl {
  struct RunPolicy {
    std::uint64_t max_steps;
    std::uint64_t n = 0;

    struct Cursor {
      std::uint64_t max_steps;
      std::uint64_t n;
      bool begin(std::uint64_t) const { return n < max_steps; }
      template <typename K>
      void commit(K, std::int32_t, std::int32_t, std::uint32_t, std::uint32_t,
                  int, bool, std::uint32_t, bool, std::uint32_t, std::uint8_t,
                  bool, bool) {
        ++n;
      }
      void commit_info(const StepInfo&, bool) { ++n; }
    };
    Cursor cursor() { return {max_steps, n}; }
    void sync(const Cursor& c) { n = c.n; }
  };

  // Appends each step through a TraceWriter held in the cursor, so its
  // stream pointers stay in registers.
  struct RecordPolicy {
    TraceWriter writer;
    std::uint64_t max_steps;

    struct Cursor {
      TraceWriter writer;
      std::uint64_t max_steps;

      bool begin(std::uint64_t steps) const {
        if (steps >= max_steps) {
          throw SimError(
              "record_trace: program did not halt within step bound");
        }
        return true;
      }
      template <ControlKind K>
      void commit(Kind<K>, std::int32_t idx, std::int32_t next, std::uint32_t,
                  std::uint32_t, int, bool, std::uint32_t, bool is_mem,
                  std::uint32_t addr, std::uint8_t, bool taken, bool) {
        writer.commit<K>(idx, next, taken, is_mem, addr);
      }
      void commit_info(const StepInfo& info, bool sentinel) {
        writer.commit_info(info, sentinel);
      }
    };
    Cursor cursor() { return {writer, max_steps}; }
    void sync(const Cursor& c) { writer = c.writer; }
  };

  // Folds each committed step into a Profile (sim/profiler.hpp): the
  // static index's count and widest source/result, plus the run totals.
  // The off-the-end sentinel is not an instruction and is skipped.
  // `latency` is the base-latency column of the program (one entry per
  // static index), built once per run so a commit reads no Instruction.
  struct ProfilePolicy {
    Profile& prof;
    const std::uint32_t* latency;
    std::uint64_t max_steps;

    struct Cursor {
      InstProfile* insts;
      const std::uint32_t* latency;
      std::uint64_t max_steps;
      std::uint64_t dynamic;
      std::uint64_t base_cycles;

      bool begin(std::uint64_t steps) const {
        if (steps >= max_steps) {
          throw SimError("profile_program: step bound exceeded");
        }
        return true;
      }
      // The fold shared by both commit paths, all but the source widths.
      InstProfile& count(std::int32_t idx, bool has_result,
                         std::uint32_t result) {
        InstProfile& ip = insts[idx];
        ++ip.count;
        if (has_result) {
          ip.max_result_width =
              std::max(ip.max_result_width, signed_width(result));
        }
        ++dynamic;
        base_cycles += latency[idx];
        return ip;
      }
      static void widen_src(InstProfile& ip, std::uint32_t v) {
        ip.max_src_width = std::max(ip.max_src_width, signed_width(v));
      }
      template <typename K>
      void commit(K, std::int32_t idx, std::int32_t, std::uint32_t a,
                  std::uint32_t b, int nsrc, bool has_result,
                  std::uint32_t result, bool, std::uint32_t, std::uint8_t,
                  bool, bool sentinel) {
        if (sentinel) return;
        InstProfile& ip = count(idx, has_result, result);
        if (nsrc > 0) widen_src(ip, a);
        if (nsrc > 1) widen_src(ip, b);
      }
      // kInterp steps, e.g. a MIMO EXT with up to kMaxExtInputs sources.
      void commit_info(const StepInfo& info, bool sentinel) {
        if (sentinel) return;
        InstProfile& ip = count(info.index, info.has_result, info.result);
        for (int i = 0; i < info.num_src; ++i) {
          widen_src(ip, info.src_vals[static_cast<std::size_t>(i)]);
        }
      }
    };
    Cursor cursor() {
      return {prof.insts.data(), latency, max_steps, prof.total_dynamic,
              prof.total_base_cycles};
    }
    void sync(const Cursor& c) {
      prof.total_dynamic = c.dynamic;
      prof.total_base_cycles = c.base_cycles;
    }
  };

  struct StepPolicy {
    const Program& program;
    StepInfo info;
    bool done = false;

    // One committed step per execute() call: the cursor writes through to
    // the policy — a single commit has no per-step state worth hoisting.
    struct Cursor {
      StepPolicy* owner;
      bool begin(std::uint64_t) const { return !owner->done; }
      template <typename K>
      void commit(K, std::int32_t idx, std::int32_t next, std::uint32_t a,
                  std::uint32_t b, int nsrc, bool has_result,
                  std::uint32_t result, bool is_mem, std::uint32_t addr,
                  std::uint8_t msize, bool taken, bool sentinel) {
        StepInfo& info = owner->info;
        info.index = idx;
        info.next_index = next;
        info.ins = sentinel
                       ? make_halt()
                       : owner->program.text[static_cast<std::size_t>(idx)];
        info.is_mem = is_mem;
        info.mem_addr = addr;
        info.mem_size = msize;
        info.has_result = has_result;
        info.result = result;
        info.src_vals = {a, b};
        info.num_src = nsrc;
        info.branch_taken = taken;
        owner->done = true;
      }
      void commit_info(const StepInfo& i, bool) {
        owner->info = i;
        owner->done = true;
      }
    };
    Cursor cursor() { return {this}; }
    void sync(const Cursor&) {}
  };

  template <typename Policy>
  static void execute(Executor& ex, const UopProgram& up, Policy& policy) {
    const Uop* const uops = up.uops.data();
    const auto size = static_cast<std::int32_t>(up.program->size());
    std::uint32_t* const regs = ex.regs_.data();
    Memory& mem = ex.mem_;
    const ExtInstTable* const table = up.table;

    std::int32_t pc = ex.pc_;
    std::uint64_t steps = ex.steps_;

    // Cached page translations: one load page, one store page. Page
    // storage is never freed or moved while the executor lives, so a
    // cached pointer stays valid; absent pages are never cached (a later
    // store would allocate the page and a stale null would keep reading
    // zeros).
    constexpr std::uint32_t kNoPage = 0xFFFFFFFFu;
    std::uint32_t load_tag = kNoPage;
    const std::uint8_t* load_page = nullptr;
    std::uint32_t store_tag = kNoPage;
    std::uint8_t* store_page = nullptr;
    constexpr std::uint32_t kOffMask = Memory::kPageSize - 1;

    const auto load_base = [&](std::uint32_t addr) -> const std::uint8_t* {
      const std::uint32_t tag = addr >> Memory::kPageBits;
      if (tag == load_tag) return load_page;
      const std::uint8_t* p = mem.page_data(addr);
      if (p != nullptr) {
        load_tag = tag;
        load_page = p;
      }
      return p;
    };
    const auto store_base = [&](std::uint32_t addr) -> std::uint8_t* {
      const std::uint32_t tag = addr >> Memory::kPageBits;
      if (tag != store_tag) {
        store_page = mem.page_data_touch(addr);
        store_tag = tag;
      }
      return store_page;
    };

    // The policy's hot per-step state, held as a local whose address never
    // escapes this frame (see the Cursor comment above the policies). On a
    // throw the cursor is NOT synced back: every caller discards the
    // policy's product when execute() throws, and the reference
    // interpreter likewise reports nothing for a faulting step.
    auto cur = policy.cursor();

    const Uop* u = nullptr;
    try {
      static const void* const kLabels[kNumUopKinds] = {
          &&op_Addu,  &&op_Subu,  &&op_And,   &&op_Or,     &&op_Xor,
          &&op_Nor,   &&op_Slt,   &&op_Sltu,  &&op_Sllv,   &&op_Srlv,
          &&op_Srav,  &&op_Mul,   &&op_Sll,   &&op_Srl,    &&op_Sra,
          &&op_Addiu, &&op_Andi,  &&op_Ori,   &&op_Xori,   &&op_Slti,
          &&op_Sltiu, &&op_Lui,   &&op_Lw,    &&op_Lh,     &&op_Lhu,
          &&op_Lb,    &&op_Lbu,   &&op_Sw,    &&op_Sh,     &&op_Sb,
          &&op_Beq,   &&op_Bne,   &&op_Blez,  &&op_Bgtz,   &&op_Bltz,
          &&op_Bgez,  &&op_J,     &&op_Jal,   &&op_Jr,     &&op_Jalr,
          &&op_Nop,   &&op_Halt,  &&op_Ext,   &&op_Sentinel,
          &&op_Interp,
      };
#define T1000_NEXT()                                          \
  do {                                                        \
    if (!cur.begin(steps)) goto loop_done;                    \
    u = uops + pc;                                            \
    goto* kLabels[static_cast<std::size_t>(u->kind)];         \
  } while (0)
      T1000_NEXT();

// rd <- rs op rt. `has_result` is reported even for an $zero destination
// (write_dst in the reference sets it before set_reg drops the write);
// the regs[0] = 0 restore keeps the hardwired zero.
#define T1000_ALU3(name, expr)                                        \
  op_##name: {                                                        \
    const std::uint32_t a = regs[u->rs];                              \
    const std::uint32_t b = regs[u->rt];                              \
    const std::uint32_t v = (expr);                                   \
    regs[u->rd] = v;                                                  \
    regs[0] = 0;                                                      \
    const std::int32_t idx = pc++;                                    \
    ++steps;                                                          \
    cur.commit(kSeq, idx, pc, a, b, 2, true, v, false, 0, 0, false,   \
               false);                                                \
  }                                                                   \
  T1000_NEXT()

      T1000_ALU3(Addu, a + b);
      T1000_ALU3(Subu, a - b);
      T1000_ALU3(And, a & b);
      T1000_ALU3(Or, a | b);
      T1000_ALU3(Xor, a ^ b);
      T1000_ALU3(Nor, ~(a | b));
      T1000_ALU3(Slt, static_cast<std::int32_t>(a) <
                              static_cast<std::int32_t>(b)
                          ? 1u
                          : 0u);
      T1000_ALU3(Sltu, a < b ? 1u : 0u);
      T1000_ALU3(Sllv, a << (b & 31));
      T1000_ALU3(Srlv, a >> (b & 31));
      T1000_ALU3(Srav, static_cast<std::uint32_t>(
                           static_cast<std::int32_t>(a) >> (b & 31)));
      T1000_ALU3(Mul, a * b);
#undef T1000_ALU3

// rd <- rs op imm, one register source. The decoder pre-extended (or
// pre-masked) imm, so `b` is ready to use — but the reported operand count
// is still 1 and src_vals[1] stays 0, matching src_regs().
#define T1000_ALU_IMM(name, expr)                                     \
  op_##name: {                                                        \
    const std::uint32_t a = regs[u->rs];                              \
    const std::uint32_t b = static_cast<std::uint32_t>(u->imm);       \
    const std::uint32_t v = (expr);                                   \
    regs[u->rd] = v;                                                  \
    regs[0] = 0;                                                      \
    const std::int32_t idx = pc++;                                    \
    ++steps;                                                          \
    cur.commit(kSeq, idx, pc, a, 0, 1, true, v, false, 0, 0, false,   \
               false);                                                \
  }                                                                   \
  T1000_NEXT()

      T1000_ALU_IMM(Sll, a << (b & 31));
      T1000_ALU_IMM(Srl, a >> (b & 31));
      T1000_ALU_IMM(Sra, static_cast<std::uint32_t>(
                             static_cast<std::int32_t>(a) >> (b & 31)));
      T1000_ALU_IMM(Addiu, a + b);
      T1000_ALU_IMM(Andi, a & b);
      T1000_ALU_IMM(Ori, a | b);
      T1000_ALU_IMM(Xori, a ^ b);
      T1000_ALU_IMM(Slti, static_cast<std::int32_t>(a) <
                                  static_cast<std::int32_t>(b)
                              ? 1u
                              : 0u);
      T1000_ALU_IMM(Sltiu, a < b ? 1u : 0u);
#undef T1000_ALU_IMM

      op_Lui: {
        const auto v = static_cast<std::uint32_t>(u->imm);
        regs[u->rd] = v;
        regs[0] = 0;
        const std::int32_t idx = pc++;
        ++steps;
        cur.commit(kSeq, idx, pc, 0, 0, 0, true, v, false, 0, 0, false,
                   false);
      }
      T1000_NEXT();

// Loads: aligned accesses never cross a 4 KiB page; a misaligned address
// is bounced to the Memory method purely for its canonical MemError. An
// absent page reads as zero without allocating (and without caching).
#define T1000_LOAD(name, bytes, misaligned_probe, read_expr)              \
  op_##name: {                                                            \
    const std::uint32_t a = regs[u->rs];                                  \
    const std::uint32_t addr = a + static_cast<std::uint32_t>(u->imm);    \
    std::uint32_t v = 0;                                                  \
    if constexpr ((bytes) > 1) {                                          \
      if ((addr & ((bytes)-1)) != 0) misaligned_probe; /* throws */       \
    }                                                                     \
    const std::uint8_t* const page = load_base(addr);                     \
    if (page != nullptr) {                                                \
      const std::uint32_t off = addr & kOffMask;                          \
      v = (read_expr);                                                    \
    }                                                                     \
    regs[u->rd] = v;                                                      \
    regs[0] = 0;                                                          \
    const std::int32_t idx = pc++;                                        \
    ++steps;                                                              \
    cur.commit(kSeq, idx, pc, a, 0, 1, true, v, true, addr, (bytes),     \
               false, false);                                             \
  }                                                                       \
  T1000_NEXT()

      T1000_LOAD(Lw, 4, mem.load_u32(addr),
                 static_cast<std::uint32_t>(page[off]) |
                     static_cast<std::uint32_t>(page[off + 1]) << 8 |
                     static_cast<std::uint32_t>(page[off + 2]) << 16 |
                     static_cast<std::uint32_t>(page[off + 3]) << 24);
      T1000_LOAD(Lh, 2, mem.load_u16(addr),
                 static_cast<std::uint32_t>(static_cast<std::int32_t>(
                     static_cast<std::int16_t>(static_cast<std::uint16_t>(
                         page[off] | page[off + 1] << 8)))));
      T1000_LOAD(Lhu, 2, mem.load_u16(addr),
                 static_cast<std::uint32_t>(page[off] |
                                            page[off + 1] << 8));
      T1000_LOAD(Lb, 1, (void)0,
                 static_cast<std::uint32_t>(static_cast<std::int32_t>(
                     static_cast<std::int8_t>(page[off]))));
      T1000_LOAD(Lbu, 1, (void)0, static_cast<std::uint32_t>(page[off]));
#undef T1000_LOAD

// Stores: data travels in rt (the second source), matching src_regs()
// order {rs, rt}.
#define T1000_STORE(name, bytes, misaligned_probe, write_stmt)            \
  op_##name: {                                                            \
    const std::uint32_t a = regs[u->rs];                                  \
    const std::uint32_t b = regs[u->rt];                                  \
    const std::uint32_t addr = a + static_cast<std::uint32_t>(u->imm);    \
    if constexpr ((bytes) > 1) {                                          \
      if ((addr & ((bytes)-1)) != 0) misaligned_probe; /* throws */       \
    }                                                                     \
    std::uint8_t* const page = store_base(addr);                          \
    const std::uint32_t off = addr & kOffMask;                            \
    write_stmt;                                                           \
    const std::int32_t idx = pc++;                                        \
    ++steps;                                                              \
    cur.commit(kSeq, idx, pc, a, b, 2, false, 0, true, addr, (bytes),   \
               false, false);                                             \
  }                                                                       \
  T1000_NEXT()

      T1000_STORE(Sw, 4, mem.store_u32(addr, b), {
        page[off] = static_cast<std::uint8_t>(b);
        page[off + 1] = static_cast<std::uint8_t>(b >> 8);
        page[off + 2] = static_cast<std::uint8_t>(b >> 16);
        page[off + 3] = static_cast<std::uint8_t>(b >> 24);
      });
      T1000_STORE(Sh, 2,
                  mem.store_u16(addr, static_cast<std::uint16_t>(b)), {
                    page[off] = static_cast<std::uint8_t>(b);
                    page[off + 1] = static_cast<std::uint8_t>(b >> 8);
                  });
      T1000_STORE(Sb, 1, (void)0,
                  { page[off] = static_cast<std::uint8_t>(b); });
#undef T1000_STORE

// Two- and one-source conditional branches. The decoder proved `target`
// in range, and the untaken successor pc+1 <= size always holds, so no
// run-time range check remains.
#define T1000_BRANCH2(name, cond)                                        \
  op_##name: {                                                           \
    const std::uint32_t a = regs[u->rs];                                 \
    const std::uint32_t b = regs[u->rt];                                 \
    const bool taken = (cond);                                           \
    const std::int32_t idx = pc;                                         \
    pc = taken ? u->target : pc + 1;                                     \
    ++steps;                                                             \
    cur.commit(kCond, idx, pc, a, b, 2, false, 0, false, 0, 0, taken,    \
               false);                                                   \
  }                                                                      \
  T1000_NEXT()

      T1000_BRANCH2(Beq, a == b);
      T1000_BRANCH2(Bne, a != b);
#undef T1000_BRANCH2

#define T1000_BRANCH1(name, cond)                                        \
  op_##name: {                                                           \
    const std::uint32_t a = regs[u->rs];                                 \
    const auto sa = static_cast<std::int32_t>(a);                        \
    (void)sa;                                                            \
    const bool taken = (cond);                                           \
    const std::int32_t idx = pc;                                         \
    pc = taken ? u->target : pc + 1;                                     \
    ++steps;                                                             \
    cur.commit(kCond, idx, pc, a, 0, 1, false, 0, false, 0, 0, taken,    \
               false);                                                   \
  }                                                                      \
  T1000_NEXT()

      T1000_BRANCH1(Blez, sa <= 0);
      T1000_BRANCH1(Bgtz, sa > 0);
      T1000_BRANCH1(Bltz, sa < 0);
      T1000_BRANCH1(Bgez, sa >= 0);
#undef T1000_BRANCH1

      op_J: {
        const std::int32_t idx = pc;
        pc = u->target;
        ++steps;
        cur.commit(kJump, idx, pc, 0, 0, 0, false, 0, false, 0, 0, true,
                   false);
      }
      T1000_NEXT();

      op_Jal: {
        const std::uint32_t link =
            kTextBase + static_cast<std::uint32_t>(pc + 1) * 4;
        regs[kRegRa] = link;
        const std::int32_t idx = pc;
        pc = u->target;
        ++steps;
        cur.commit(kJump, idx, pc, 0, 0, 0, true, link, false, 0, 0, true,
                   false);
      }
      T1000_NEXT();

      op_Jr: {
        const std::uint32_t t = regs[u->rs];
        if (t < kTextBase || (t & 3) != 0) {
          throw SimError("wild jump to 0x" + std::to_string(t));
        }
        const auto next = static_cast<std::int32_t>((t - kTextBase) / 4);
        if (next > size) {
          throw SimError("control transfer out of text: " +
                         std::to_string(next));
        }
        const std::int32_t idx = pc;
        pc = next;
        ++steps;
        cur.commit(kJumpReg, idx, pc, t, 0, 1, false, 0, false, 0, 0, true,
                   false);
      }
      T1000_NEXT();

      op_Jalr: {
        // Operand read, then link write, then target checks — the
        // reference order, observable when rd == rs and when the link
        // write precedes a wild-jump fault.
        const std::uint32_t t = regs[u->rs];
        const std::uint32_t link =
            kTextBase + static_cast<std::uint32_t>(pc + 1) * 4;
        regs[u->rd] = link;
        regs[0] = 0;
        if (t < kTextBase || (t & 3) != 0) {
          throw SimError("wild jump to 0x" + std::to_string(t));
        }
        const auto next = static_cast<std::int32_t>((t - kTextBase) / 4);
        if (next > size) {
          throw SimError("control transfer out of text: " +
                         std::to_string(next));
        }
        const std::int32_t idx = pc;
        pc = next;
        ++steps;
        cur.commit(kJumpReg, idx, pc, t, 0, 1, true, link, false, 0, 0,
                   true, false);
      }
      T1000_NEXT();

      op_Nop: {
        const std::int32_t idx = pc++;
        ++steps;
        cur.commit(kSeq, idx, pc, 0, 0, 0, false, 0, false, 0, 0, false,
                   false);
      }
      T1000_NEXT();

      op_Halt: {
        ex.halted_ = true;
        ++steps;
        cur.commit(kStop, pc, pc, 0, 0, 0, false, 0, false, 0, 0, false,
                   false);
        goto loop_done;
      }

      op_Ext: {
        const std::uint32_t a = regs[u->rs];
        const std::uint32_t b = regs[u->rt];
        const std::uint32_t v =
            table->defs()[static_cast<std::size_t>(u->imm)].eval(a, b);
        regs[u->rd] = v;
        regs[0] = 0;
        const std::int32_t idx = pc++;
        ++steps;
        cur.commit(kSeq, idx, pc, a, b, 2, true, v, false, 0, 0, false,
                   false);
      }
      T1000_NEXT();

      op_Sentinel: {
        // Clean off-the-end halt: reported but not counted as an
        // executed step, exactly like the reference interpreter.
        ex.halted_ = true;
        cur.commit(kStop, pc, pc, 0, 0, 0, false, 0, false, 0, 0, false,
                   true);
        goto loop_done;
      }

      op_Interp: {
        // Irregular instruction: hand this one step to the reference
        // interpreter. On a throw it leaves pc_/steps_ untouched, so
        // the catch-all write-back below is a no-op.
        ex.pc_ = pc;
        ex.steps_ = steps;
        const StepInfo info = ex.step_reference();
        pc = ex.pc_;
        steps = ex.steps_;
        cur.commit_info(info, info.index >= size);
        if (ex.halted_) goto loop_done;
      }
      T1000_NEXT();

#undef T1000_NEXT
    loop_done:
      policy.sync(cur);
      ex.pc_ = pc;
      ex.steps_ = steps;
    } catch (...) {
      ex.pc_ = pc;
      ex.steps_ = steps;
      throw;
    }
  }
};

StepInfo Executor::step_ucode() {
  if (halted_) throw SimError("step() after halt");
  UcodeImpl::StepPolicy policy{program_, StepInfo{}, false};
  UcodeImpl::execute(*this, *ucode_, policy);
  return policy.info;
}

std::uint64_t Executor::run_ucode(std::uint64_t max_steps) {
  if (halted_) return 0;
  UcodeImpl::RunPolicy policy{max_steps};
  UcodeImpl::execute(*this, *ucode_, policy);
  return policy.n;
}

void Executor::record_ucode(CommittedTrace& trace, std::uint64_t max_steps) {
  UcodeImpl::RecordPolicy policy{TraceWriter(trace), max_steps};
  if (!halted_) UcodeImpl::execute(*this, *ucode_, policy);
  policy.writer.finish(program_, regs_[kRegV0]);
}

void Executor::profile_ucode(Profile& prof, std::uint64_t max_steps) {
  const Program& program = *ucode_->program;
  std::vector<std::uint32_t> latency(program.text.size());
  for (std::size_t i = 0; i < latency.size(); ++i) {
    latency[i] = static_cast<std::uint32_t>(base_latency(program.text[i].op));
  }
  prof.insts.assign(latency.size(), InstProfile{});
  UcodeImpl::ProfilePolicy policy{prof, latency.data(), max_steps};
  if (!halted_) UcodeImpl::execute(*this, *ucode_, policy);
}

CommittedTrace record_trace(const UopProgram& ucode,
                            std::uint64_t max_steps) {
  Executor exec(ucode);
  CommittedTrace trace;
  exec.record_ucode(trace, max_steps);
  return trace;
}

}  // namespace t1000
