#include "analysis/equiv.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <tuple>

#include "analysis/dataflow.hpp"
#include "cfg/cfg.hpp"
#include "isa/alu.hpp"
#include "isa/reg.hpp"

namespace t1000 {

// ---------------------------------------------------------------------------
// SymbolicPool

namespace {

// Immediate-form and variable-shift opcodes evaluate exactly like their
// three-register counterparts once the operand is materialized (eval_alu
// handles each pair with one case), so the DAG stores the canonical form.
// The *caller* extends immediates with the original opcode — imm_extension
// differs across the pair (andi zero-extends, and has no immediate).
Opcode canonical_op(Opcode op) {
  switch (op) {
    case Opcode::kAddiu: return Opcode::kAddu;
    case Opcode::kAndi: return Opcode::kAnd;
    case Opcode::kOri: return Opcode::kOr;
    case Opcode::kXori: return Opcode::kXor;
    case Opcode::kSlti: return Opcode::kSlt;
    case Opcode::kSltiu: return Opcode::kSltu;
    case Opcode::kSll: return Opcode::kSllv;
    case Opcode::kSrl: return Opcode::kSrlv;
    case Opcode::kSra: return Opcode::kSrav;
    default: return op;
  }
}

bool is_commutative(Opcode op) {
  switch (op) {
    case Opcode::kAddu:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kNor:
    case Opcode::kMul:
      return true;
    default:
      return false;
  }
}

}  // namespace

SymbolicPool::NodeId SymbolicPool::intern(const Node& n) {
  // Linear probe over a tiny pool (a window is at most kMaxUops ops, so a
  // proof touches a few dozen nodes); value identity is structural identity
  // because operands are already interned ids.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i] == n) return static_cast<NodeId>(i);
  }
  nodes_.push_back(n);
  return static_cast<NodeId>(nodes_.size() - 1);
}

SymbolicPool::NodeId SymbolicPool::input(int slot) {
  Node n;
  n.kind = Kind::kInput;
  n.value = static_cast<std::uint32_t>(slot);
  return intern(n);
}

SymbolicPool::NodeId SymbolicPool::poison(int reg) {
  Node n;
  n.kind = Kind::kPoison;
  n.value = static_cast<std::uint32_t>(reg);
  return intern(n);
}

SymbolicPool::NodeId SymbolicPool::constant(std::uint32_t value) {
  Node n;
  n.kind = Kind::kConst;
  n.value = value;
  return intern(n);
}

SymbolicPool::NodeId SymbolicPool::apply(Opcode op, NodeId a, NodeId b) {
  op = canonical_op(op);
  const Node& na = nodes_[static_cast<std::size_t>(a)];
  const Node& nb = nodes_[static_cast<std::size_t>(b)];
  const bool ca = na.kind == Kind::kConst;
  const bool cb = nb.kind == Kind::kConst;

  // Constant folding (covers LUI entirely: both of its operands are
  // constants, so a LUI always reduces to a constant leaf).
  if (ca && cb) return constant(eval_alu(op, na.value, nb.value));

  // Algebraic identities with a zero constant: these arise whenever an
  // application binds $zero to an input (the binding is const 0 on both the
  // baseline and the PFU side) and keep such proofs structural.
  if (cb && nb.value == 0) {
    switch (op) {
      case Opcode::kAddu:
      case Opcode::kSubu:
      case Opcode::kOr:
      case Opcode::kXor:
      case Opcode::kSllv:  // eval_alu shifts by (b & 31): zero shift = id
      case Opcode::kSrlv:
      case Opcode::kSrav:
        return a;
      case Opcode::kAnd:
        return b;  // the zero constant
      default:
        break;
    }
  }
  if (ca && na.value == 0) {
    switch (op) {
      case Opcode::kAddu:
      case Opcode::kOr:
      case Opcode::kXor:
        return b;
      case Opcode::kAnd:
      case Opcode::kSllv:  // 0 shifted by anything is 0
      case Opcode::kSrlv:
      case Opcode::kSrav:
        return a;  // the zero constant
      default:
        break;
    }
  }

  // Canonical operand order for commutative operations: by node id, which
  // is deterministic and stable within one pool.
  if (is_commutative(op) && a > b) std::swap(a, b);

  Node n;
  n.kind = Kind::kOp;
  n.op = op;
  n.a = a;
  n.b = b;
  return intern(n);
}

std::string SymbolicPool::render(NodeId id) const {
  if (id < 0 || id >= static_cast<NodeId>(nodes_.size())) return "<invalid>";
  const Node& n = nodes_[static_cast<std::size_t>(id)];
  switch (n.kind) {
    case Kind::kInput:
      return "in" + std::to_string(n.value);
    case Kind::kPoison:
      return "poison(" + std::string(reg_name(static_cast<Reg>(n.value))) +
             ")";
    case Kind::kConst:
      return std::to_string(n.value);
    case Kind::kOp:
      return std::string(mnemonic(n.op)) + "(" + render(n.a) + ", " +
             render(n.b) + ")";
  }
  return "<invalid>";
}

// ---------------------------------------------------------------------------
// check_translation

namespace {

std::string pos_loc(std::int32_t pos) { return "pos " + std::to_string(pos); }

std::string app_loc(ConfId conf, std::size_t app) {
  return "conf " + std::to_string(conf) + " app " + std::to_string(app);
}

void emit(VerifyReport& report, std::string rule_id, std::string location,
          std::string message) {
  report.diagnostics.push_back(Diagnostic{Severity::kError, std::move(rule_id),
                                          std::move(location),
                                          std::move(message)});
}

// --- equiv.map -------------------------------------------------------------
//
// The old->new index map must be a dense deletion map: one entry per old
// position plus the one-past-the-end sentinel, starting at 0, stepping by 0
// (deleted) or 1 (kept), and ending exactly at the rewritten text size.
// Every later proof reads positions through it, so a malformed map gates
// the map-dependent rules (replaced / target / dead-kill).
bool check_map(const Program& baseline, const RewriteResult& rewrite,
               VerifyReport& report) {
  const std::vector<std::int32_t>& map = rewrite.index_map;
  const std::size_t want = static_cast<std::size_t>(baseline.size()) + 1;
  if (map.size() != want) {
    emit(report, "equiv.map", "index_map",
         "index map has " + std::to_string(map.size()) + " entries, want " +
             std::to_string(want) + " (program size + sentinel)");
    return false;
  }
  bool ok = true;
  if (map.front() != 0) {
    emit(report, "equiv.map", "index_map",
         "index map starts at " + std::to_string(map.front()) + ", want 0");
    ok = false;
  }
  for (std::size_t p = 0; p + 1 < map.size(); ++p) {
    const std::int32_t delta = map[p + 1] - map[p];
    if (delta != 0 && delta != 1) {
      emit(report, "equiv.map", pos_loc(static_cast<std::int32_t>(p)),
           "index map steps by " + std::to_string(delta) +
               " between old positions " + std::to_string(p) + " and " +
               std::to_string(p + 1) + "; a deletion map steps by 0 or 1");
      ok = false;
    }
  }
  if (map.back() != rewrite.program.size()) {
    emit(report, "equiv.map", "index_map",
         "index map ends at " + std::to_string(map.back()) +
             " but the rewritten program has " +
             std::to_string(rewrite.program.size()) + " instructions");
    ok = false;
  }
  return ok;
}

// Covered-position roles within the rewrite.
enum class Role : std::uint8_t { kUncovered, kDeleted, kLanding };

struct Coverage {
  // Per old position: role and owning application (kUncovered: -1).
  std::vector<Role> role;
  std::vector<std::int32_t> owner;

  explicit Coverage(const Program& baseline,
                    const std::vector<Application>& apps) {
    role.assign(static_cast<std::size_t>(baseline.size()), Role::kUncovered);
    owner.assign(static_cast<std::size_t>(baseline.size()), -1);
    for (std::size_t i = 0; i < apps.size(); ++i) {
      for (const std::int32_t p : apps[i].positions) {
        if (p < 0 || p >= baseline.size()) continue;  // rw.positions reports
        role[static_cast<std::size_t>(p)] = Role::kDeleted;
        owner[static_cast<std::size_t>(p)] = static_cast<std::int32_t>(i);
      }
      if (!apps[i].positions.empty()) {
        const std::int32_t landing = apps[i].positions.back();
        if (landing >= 0 && landing < baseline.size()) {
          role[static_cast<std::size_t>(landing)] = Role::kLanding;
        }
      }
    }
  }
};

// True when `op` carries an absolute instruction index in `imm` that the
// rewriter remaps (register-indirect jumps carry none).
bool has_label_target(Opcode op) {
  return is_branch(op) || op_kind(op) == OpKind::kJump;
}

// --- equiv.replaced / equiv.target -----------------------------------------
//
// Walks every old position through the index map and proves the rewritten
// text is the baseline with exactly the covered windows replaced: covered
// non-landing positions are deleted, each landing survives as the owning
// application's EXT, and every uncovered instruction survives byte-identical
// (equiv.replaced) with control targets remapped through the map
// (equiv.target). Data segment and symbol tables round-trip likewise.
void check_replaced(const Program& baseline, const RewriteResult& rewrite,
                    const std::vector<Application>& apps, const Coverage& cov,
                    VerifyReport& report) {
  const std::vector<std::int32_t>& map = rewrite.index_map;
  for (std::int32_t p = 0; p < baseline.size(); ++p) {
    const std::size_t ps = static_cast<std::size_t>(p);
    const bool kept = map[ps] < map[ps + 1];
    const Instruction& old = baseline.text[ps];
    switch (cov.role[ps]) {
      case Role::kDeleted:
        if (kept) {
          emit(report, "equiv.replaced", pos_loc(p),
               "covered position survives at new index " +
                   std::to_string(map[ps]) + "; members of " +
                   app_loc(apps[static_cast<std::size_t>(cov.owner[ps])].conf,
                           static_cast<std::size_t>(cov.owner[ps])) +
                   " must be deleted");
        }
        continue;
      case Role::kLanding: {
        const Application& app =
            apps[static_cast<std::size_t>(cov.owner[ps])];
        const Instruction* ni =
            kept ? &rewrite.program.text[static_cast<std::size_t>(map[ps])]
                 : nullptr;
        if (ni == nullptr || ni->op != Opcode::kExt ||
            ni->conf != app.conf) {
          emit(report, "equiv.replaced", pos_loc(p),
               "landing position of " +
                   app_loc(app.conf, static_cast<std::size_t>(cov.owner[ps])) +
                   (ni == nullptr
                        ? " was deleted instead of replaced by its EXT"
                        : " holds '" + to_string(*ni) +
                              "' instead of the application's EXT"));
        }
        continue;
      }
      case Role::kUncovered:
        break;
    }
    if (!kept) {
      emit(report, "equiv.replaced", pos_loc(p),
           "uncovered instruction '" + to_string(old) +
               "' was deleted by the rewrite");
      continue;
    }
    const Instruction& ni =
        rewrite.program.text[static_cast<std::size_t>(map[ps])];
    const bool remapped_imm = has_label_target(old.op);
    if (ni.op != old.op || ni.rd != old.rd || ni.rs != old.rs ||
        ni.rt != old.rt || ni.conf != old.conf ||
        (!remapped_imm && ni.imm != old.imm)) {
      emit(report, "equiv.replaced", pos_loc(p),
           "uncovered instruction changed: '" + to_string(old) +
               "' became '" + to_string(ni) + "' at new index " +
               std::to_string(map[ps]));
      continue;
    }
    if (remapped_imm) {
      const std::int32_t want =
          old.imm >= 0 && old.imm <= baseline.size()
              ? map[static_cast<std::size_t>(old.imm)]
              : -1;
      if (ni.imm != want) {
        emit(report, "equiv.target", pos_loc(p),
             "control target " + std::to_string(old.imm) + " maps to " +
                 std::to_string(want) + " but the rewritten '" +
                 to_string(ni) + "' targets " + std::to_string(ni.imm));
      }
    }
  }

  if (rewrite.program.data != baseline.data) {
    emit(report, "equiv.replaced", "data",
         "rewrite changed the data segment (" +
             std::to_string(baseline.data.size()) + " -> " +
             std::to_string(rewrite.program.data.size()) + " bytes)");
  }
  if (rewrite.program.data_symbols != baseline.data_symbols) {
    emit(report, "equiv.replaced", "data",
         "rewrite changed the data symbol table");
  }
  if (rewrite.program.text_symbols.size() != baseline.text_symbols.size()) {
    emit(report, "equiv.replaced", "symbols",
         "rewrite changed the number of text symbols (" +
             std::to_string(baseline.text_symbols.size()) + " -> " +
             std::to_string(rewrite.program.text_symbols.size()) + ")");
  } else {
    for (const auto& [name, index] : baseline.text_symbols) {
      const auto it = rewrite.program.text_symbols.find(name);
      const std::int32_t want = index >= 0 && index <= baseline.size()
                                    ? map[static_cast<std::size_t>(index)]
                                    : -1;
      if (it == rewrite.program.text_symbols.end() || it->second != want) {
        emit(report, "equiv.target", "symbol '" + name + "'",
             "text symbol must remap " + std::to_string(index) + " -> " +
                 std::to_string(want) +
                 (it == rewrite.program.text_symbols.end()
                      ? " but is missing"
                      : " but maps to " + std::to_string(it->second)));
        break;  // one diagnostic for the table keeps reports readable
      }
    }
  }
}

// --- equiv.symbolic --------------------------------------------------------
//
// Symbolically executes the covered baseline instructions over a register
// state seeded with input leaves, and the bound configuration's
// micro-program over a slot state seeded identically, then requires every
// claimed output to land on the *same node* of the shared normalized DAG.
// Node identity is function identity over the input leaves, so a successful
// proof holds for all 2^32 valuations of every input at once, whatever
// widths the profile observed. It is the verifier's one equivalence proof.
// Returns true when the application is proven.
bool check_symbolic(const AnalyzedProgram& ap, const Application& app,
                    std::size_t app_index, const Selection& selection,
                    VerifyReport& report) {
  const Program& program = *ap.program;
  const std::string loc = app_loc(app.conf, app_index);
  if (app.positions.empty() ||
      app.conf >= static_cast<ConfId>(selection.table.size())) {
    return false;  // rw.positions / rw.landing report the details
  }
  for (const std::int32_t p : app.positions) {
    if (p < 0 || p >= program.size()) return false;
  }
  const ExtInstDef& def = selection.table.at(app.conf);
  const int n_out = 1 + static_cast<int>(app.extra_outputs.size());
  if (def.num_inputs() != app.num_inputs || def.num_outputs() != n_out) {
    emit(report, "equiv.symbolic", loc,
         "configuration shape " + std::to_string(def.num_inputs()) + "-in/" +
             std::to_string(def.num_outputs()) +
             "-out does not match the application's " +
             std::to_string(app.num_inputs) + "-in/" + std::to_string(n_out) +
             "-out binding");
    return false;
  }

  SymbolicPool pool;
  const SymbolicPool::NodeId zero = pool.constant(0);

  // Evaluates one ALU-class operation symbolically; mirrors the operand
  // selection of ExtInstDef::eval_multi and the executor exactly.
  auto symbolic_alu = [&pool, zero](Opcode op, SymbolicPool::NodeId a,
                                    std::int32_t imm,
                                    SymbolicPool::NodeId b_reg)
      -> SymbolicPool::NodeId {
    switch (op_kind(op)) {
      case OpKind::kAlu3:
        if (a == SymbolicPool::kInvalid || b_reg == SymbolicPool::kInvalid) {
          return SymbolicPool::kInvalid;
        }
        return pool.apply(op, a, b_reg);
      case OpKind::kShiftImm:
        if (a == SymbolicPool::kInvalid) return SymbolicPool::kInvalid;
        return pool.apply(op, a,
                          pool.constant(static_cast<std::uint32_t>(imm)));
      case OpKind::kAluImm:
        if (a == SymbolicPool::kInvalid) return SymbolicPool::kInvalid;
        return pool.apply(op, a, pool.constant(extend_imm(op, imm)));
      case OpKind::kLui:
        return pool.apply(
            Opcode::kLui, zero,
            pool.constant(static_cast<std::uint32_t>(imm) & 0xFFFF));
      default:
        return SymbolicPool::kInvalid;
    }
  };

  // Baseline side: registers start as lazily-created poison leaves ($zero
  // is the constant 0); the claimed input registers carry input leaves.
  std::array<SymbolicPool::NodeId, kNumRegs> regs;
  regs.fill(SymbolicPool::kInvalid);
  regs[kRegZero] = zero;
  for (int i = 0; i < app.num_inputs; ++i) {
    const Reg r = app.inputs[static_cast<std::size_t>(i)];
    if (r != kRegZero) regs[r] = pool.input(i);
  }
  auto reg_node = [&](Reg r) {
    if (regs[r] == SymbolicPool::kInvalid) regs[r] = pool.poison(r);
    return regs[r];
  };
  // Extra outputs are captured at their producing member (a later member
  // may legally reuse the register before the landing point).
  std::vector<SymbolicPool::NodeId> extra(app.extra_outputs.size(),
                                          SymbolicPool::kInvalid);
  for (const std::int32_t p : app.positions) {
    const Instruction& ins = program.text[static_cast<std::size_t>(p)];
    const SymbolicPool::NodeId v =
        symbolic_alu(ins.op, reg_node(ins.rs), ins.imm, reg_node(ins.rt));
    if (v == SymbolicPool::kInvalid) {
      emit(report, "equiv.symbolic", loc,
           "member at " + pos_loc(p) + " ('" + to_string(ins) +
               "') has no ALU semantics to model");
      return false;
    }
    if (ins.rd != kRegZero) regs[ins.rd] = v;
    for (std::size_t e = 0; e < app.extra_outputs.size(); ++e) {
      if (app.extra_outputs[e] == ins.rd) extra[e] = v;
    }
  }
  std::vector<SymbolicPool::NodeId> want;
  want.push_back(reg_node(app.output));
  for (std::size_t e = 0; e < extra.size(); ++e) {
    if (extra[e] == SymbolicPool::kInvalid) {
      emit(report, "equiv.symbolic", loc,
           "claimed extra output " +
               std::string(reg_name(app.extra_outputs[e])) +
               " is written by no member");
      return false;
    }
    want.push_back(extra[e]);
  }

  // PFU side: slots 0..num_inputs-1 carry the same leaves the baseline
  // registers were seeded with, then the micro-program runs in SSA order.
  std::vector<SymbolicPool::NodeId> slots(
      static_cast<std::size_t>(def.input_base() + def.length()),
      SymbolicPool::kInvalid);
  for (int i = 0; i < def.num_inputs(); ++i) {
    const Reg r = app.inputs[static_cast<std::size_t>(i)];
    slots[static_cast<std::size_t>(i)] = r == kRegZero ? zero : pool.input(i);
  }
  auto slot_node = [&](std::int8_t s) {
    return s >= 0 && s < static_cast<std::int8_t>(slots.size())
               ? slots[static_cast<std::size_t>(s)]
               : SymbolicPool::kInvalid;
  };
  for (const MicroOp& u : def.uops()) {
    const SymbolicPool::NodeId v =
        symbolic_alu(u.op, slot_node(u.a), u.imm, slot_node(u.b));
    if (v == SymbolicPool::kInvalid) {
      emit(report, "equiv.symbolic", loc,
           "configuration micro-op '" + std::string(mnemonic(u.op)) +
               "' reads an unassigned slot or has no ALU semantics");
      return false;
    }
    slots[static_cast<std::size_t>(u.dst)] = v;
  }

  for (int o = 0; o < n_out; ++o) {
    const SymbolicPool::NodeId got =
        slot_node(def.out_slots()[static_cast<std::size_t>(o)]);
    if (got == want[static_cast<std::size_t>(o)]) continue;
    emit(report, "equiv.symbolic", loc,
         "output " + std::to_string(o) + " differs symbolically: sequence "
         "computes " + pool.render(want[static_cast<std::size_t>(o)]) +
             ", configuration computes " + pool.render(got));
    return false;
  }
  return true;
}

// --- equiv.dead-kill -------------------------------------------------------
//
// The baseline window wrote every member's destination register; the EXT
// only writes its declared outputs. For each register the window kills but
// the EXT no longer writes, a deleted definition is unobservable only if
// (a) no surviving instruction inside the window span reads it while the
// deleted definition would have been the reaching one, and (b) past the
// landing point it is either shadowed by a surviving definition inside the
// span or proven dead by real backward liveness on the *rewritten*
// program — the one obligation the purely-structural rules cannot
// discharge. (A member's own reads fold into the EXT, and a surviving
// definition inside the span reaches later readers identically in both
// programs, so neither re-exposes the kill.)
void check_dead_kills(const Program& baseline, const RewriteResult& rewrite,
                      const std::vector<Application>& apps,
                      const InstLiveness& live, VerifyReport& report) {
  std::vector<bool> is_member(static_cast<std::size_t>(baseline.size()),
                              false);
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const Application& app = apps[i];
    if (app.positions.empty()) continue;
    const std::int32_t first = app.positions.front();
    const std::int32_t landing = app.positions.back();
    if (first < 0 || landing < 0 || landing >= baseline.size()) continue;
    const std::int32_t ni =
        rewrite.index_map[static_cast<std::size_t>(landing)];
    if (ni < 0 || ni >= rewrite.program.size()) continue;

    std::fill(is_member.begin(), is_member.end(), false);
    for (const std::int32_t p : app.positions) {
      if (p >= 0 && p < baseline.size()) {
        is_member[static_cast<std::size_t>(p)] = true;
      }
    }
    // What the rewritten instruction actually writes (independent of the
    // application's claim).
    RegSet written;
    const DstRegs d =
        dst_regs(rewrite.program.text[static_cast<std::size_t>(ni)]);
    for (int k = 0; k < d.count; ++k) written.set(d.reg[k]);

    // Registers the window writes that the EXT does not.
    RegSet killed;
    for (const std::int32_t p : app.positions) {
      const auto dst = dst_reg(baseline.text[static_cast<std::size_t>(p)]);
      if (dst && !written.test(*dst)) killed.set(*dst);
    }
    if (killed.none()) continue;

    // Walk the window span in baseline order, tracking which killed
    // registers currently hold a deleted (member) definition. A surviving
    // instruction that reads such a register would observe the stale
    // pre-window value after the rewrite; one that writes it shadows the
    // kill for everything downstream.
    RegSet deleted_def;  // killed regs whose reaching def is a deleted one
    RegSet use, def;
    for (std::int32_t q = first; q <= landing; ++q) {
      const Instruction& ins = baseline.text[static_cast<std::size_t>(q)];
      if (is_member[static_cast<std::size_t>(q)]) {
        const auto dst = dst_reg(ins);
        if (dst && killed.test(*dst)) deleted_def.set(*dst);
        continue;
      }
      inst_use_def(ins, &use, &def);
      const RegSet stale = use & deleted_def;
      if (stale.any()) {
        for (Reg r = 0; r < kNumRegs; ++r) {
          if (!stale.test(r)) continue;
          emit(report, "equiv.dead-kill", app_loc(app.conf, i),
               "surviving '" + to_string(ins) + "' at " + pos_loc(q) +
                   " reads " + std::string(reg_name(r)) +
                   ", whose definition the window deletes");
        }
      }
      deleted_def &= ~def;  // a surviving definition shadows the kill
    }

    const RegSet leaked = deleted_def & live.live_after(ni);
    if (leaked.none()) continue;
    for (Reg r = 0; r < kNumRegs; ++r) {
      if (!leaked.test(r)) continue;
      emit(report, "equiv.dead-kill", app_loc(app.conf, i),
           "the window deletes the reaching definition of " +
               std::string(reg_name(r)) +
               ", the EXT does not write it, and it is live after the "
               "landing point (new index " + std::to_string(ni) + ")");
    }
  }
}

}  // namespace

void check_translation(const AnalyzedProgram& ap, const Selection& selection,
                       const RewriteResult& rewrite, VerifyReport& report) {
  const Program& baseline = *ap.program;

  const bool map_ok = check_map(baseline, rewrite, report);
  if (map_ok) {
    const Coverage cov(baseline, selection.apps);
    check_replaced(baseline, rewrite, selection.apps, cov, report);
  }

  for (std::size_t i = 0; i < selection.apps.size(); ++i) {
    if (check_symbolic(ap, selection.apps[i], i, selection, report)) {
      ++report.stats.translation_proven;
    }
  }

  // Liveness needs a structurally sound rewritten program (Cfg::build
  // indexes by branch target); wf.* on the rewritten module plus the map
  // proof gate it. Other rule families do not — dead-kill must still fire
  // when, say, a claim mismatch is what flushed the breakage out.
  bool wf_ok = true;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.severity == Severity::kError && d.rule_id.starts_with("wf.")) {
      wf_ok = false;
      break;
    }
  }
  if (map_ok && wf_ok && !selection.apps.empty()) {
    const Cfg cfg = Cfg::build(rewrite.program);
    const InstLiveness live(rewrite.program, cfg);
    check_dead_kills(baseline, rewrite, selection.apps, live, report);
  }
}

}  // namespace t1000
