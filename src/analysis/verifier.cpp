#include "analysis/verifier.hpp"

#include <algorithm>
#include <chrono>
#include <set>
#include <string>
#include <vector>

#include "analysis/dataflow.hpp"
#include "analysis/equiv.hpp"
#include "cfg/cfg.hpp"
#include "cfg/liveness.hpp"
#include "extinst/chain.hpp"
#include "hwcost/lut_model.hpp"
#include "isa/alu.hpp"

namespace t1000 {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::string pos_loc(std::int32_t pos) { return "pos " + std::to_string(pos); }

std::string app_loc(ConfId conf, std::size_t app) {
  return "conf " + std::to_string(conf) + " app " + std::to_string(app);
}

void emit(VerifyReport& report, Severity severity, std::string rule_id,
          std::string location, std::string message) {
  report.diagnostics.push_back(Diagnostic{severity, std::move(rule_id),
                                          std::move(location),
                                          std::move(message)});
}

// ---------------------------------------------------------------------------
// Module / CFG well-formedness (`wf.*`).

bool is_call(Opcode op) { return op == Opcode::kJal || op == Opcode::kJalr; }

void check_instruction_fields(const Program& program,
                              const ExtInstTable* table,
                              VerifyReport& report) {
  const std::int32_t size = program.size();
  for (std::int32_t p = 0; p < size; ++p) {
    const Instruction& ins = program.text[static_cast<std::size_t>(p)];
    for (const Reg r : {ins.rd, ins.rs, ins.rt}) {
      if (r >= kNumRegs) {
        emit(report, Severity::kError, "wf.reg-range", pos_loc(p),
             "register field " + std::to_string(r) + " out of range in '" +
                 to_string(ins) + "'");
        break;
      }
    }
    if (is_branch(ins.op) || op_kind(ins.op) == OpKind::kJump) {
      // Target == size is legal: the executor halts cleanly when pc runs off
      // the end, and the rewriter's index_map deliberately maps deleted tail
      // positions there.
      if (ins.imm < 0 || ins.imm > size) {
        emit(report, Severity::kError, "wf.branch-target", pos_loc(p),
             "control target " + std::to_string(ins.imm) +
                 " outside [0, " + std::to_string(size) + "] in '" +
                 to_string(ins) + "'");
      }
    }
    if (ins.op == Opcode::kExt) {
      if (table == nullptr) {
        emit(report, Severity::kError, "wf.conf-ref", pos_loc(p),
             "EXT instruction but no configuration table is present");
      } else if (ins.conf >= static_cast<ConfId>(table->size())) {
        emit(report, Severity::kError, "wf.conf-ref", pos_loc(p),
             "Conf " + std::to_string(ins.conf) +
                 " not in table (size " + std::to_string(table->size()) +
                 ")");
      }
    } else if (ins.conf != kInvalidConf) {
      emit(report, Severity::kError, "wf.conf-ref", pos_loc(p),
           "non-EXT instruction carries Conf " + std::to_string(ins.conf));
    }
  }
  for (const auto& [name, index] : program.text_symbols) {
    if (index < 0 || index > size) {
      emit(report, Severity::kError, "wf.text-symbol", "symbol '" + name + "'",
           "text symbol index " + std::to_string(index) + " outside [0, " +
               std::to_string(size) + "]");
    }
  }
}

// Definite-assignment dataflow: warn when some path from the entry reaches a
// register use with no prior definition. At entry the executor gives defined
// values to $zero, $sp (stack top), and $ra (the halt return address); every
// other register is only incidentally zero-filled, so relying on it is worth
// flagging. Calls conservatively define everything (the callee's writes are
// not tracked interprocedurally). Warning severity: the simulator's zero-fill
// makes the read deterministic, just suspicious.
void check_defs_before_uses(const Program& program, const Cfg& cfg,
                            VerifyReport& report) {
  RegSet entry_defined;
  entry_defined.set(kRegZero);
  entry_defined.set(kRegSp);
  entry_defined.set(kRegRa);

  // Forward must-analysis over blocks reachable from the entry, optimistic
  // initialization (all defined), meet = intersection over predecessors
  // (the program-start path joins the meet at the entry block). Stated as a
  // DefinedRegsProblem over the generic solver; the reporting walk below
  // replays each block's transfer against the solved block-entry values.
  const DefinedRegsProblem problem(program, cfg, entry_defined);
  const DataflowResult<DefinedRegsProblem> solved =
      solve_dataflow(cfg, problem);

  const RegSet all = RegSet().set();
  for (const BasicBlock& bb : cfg.blocks()) {
    if (!problem.active(bb.id)) continue;
    RegSet defined = solved.in[static_cast<std::size_t>(bb.id)];
    for (std::int32_t p = bb.first; p <= bb.last; ++p) {
      const Instruction& ins = program.text[static_cast<std::size_t>(p)];
      const SrcRegs srcs = src_regs(ins);
      for (int s = 0; s < srcs.count; ++s) {
        const Reg r = srcs.reg[s];
        if (r == kRegZero || r >= kNumRegs || defined.test(r)) continue;
        emit(report, Severity::kWarning, "wf.use-before-def", pos_loc(p),
             std::string(reg_name(r)) + " may be read before any definition" +
                 " in '" + to_string(ins) + "'");
        defined.set(r);  // report each register once per block
      }
      const DstRegs dsts = dst_regs(ins);
      for (int d = 0; d < dsts.count; ++d) defined.set(dsts.reg[d]);
      if (is_call(ins.op)) defined = all;
    }
  }
}

// ---------------------------------------------------------------------------
// Per-application legality: check the members and recompute the inputs and
// outputs of an application from the *original* program text, independently
// of the extractor's SeqSite bookkeeping.

struct ExternalInput {
  Reg reg = 0;
  std::int32_t def_pos = -1;  // last in-block writer before first use, or -1
};

struct Recomputed {
  bool usable = false;  // members and I/O recomputed without errors
  std::vector<ExternalInput> externals;  // slot order (<= max_inputs)
  // Required extra outputs: intermediates whose value stays architecturally
  // visible past the landing point, in member order.
  std::vector<Reg> extra_outputs;
  int width = 1;  // widest profiled input (applied to every port)
  std::int32_t landing = -1;

  std::array<int, 2> lut_widths() const { return {width, width}; }
};

// Last position in [block_first, before) writing `r`, or -1.
std::int32_t last_writer_before(const Program& program,
                                std::int32_t block_first, std::int32_t before,
                                Reg r) {
  for (std::int32_t q = before - 1; q >= block_first; --q) {
    if (writes_reg(program.text[static_cast<std::size_t>(q)], r)) return q;
  }
  return -1;
}

Recomputed recompute_app(const AnalyzedProgram& ap, const Application& app,
                         std::size_t app_index, VerifyReport& report) {
  Recomputed rc;
  const Program& program = *ap.program;
  const ExtractPolicy& shape = ap.extract;
  const std::string loc = app_loc(app.conf, app_index);
  const int n_members = static_cast<int>(app.positions.size());

  if (n_members == 0) {
    emit(report, Severity::kError, "rw.positions", loc,
         "application covers no positions");
    return rc;
  }
  for (int m = 0; m < n_members; ++m) {
    const std::int32_t p = app.positions[static_cast<std::size_t>(m)];
    if (p < 0 || p >= program.size()) {
      emit(report, Severity::kError, "rw.positions", loc,
           "position " + std::to_string(p) + " outside the program");
      return rc;
    }
    if (m > 0 && p <= app.positions[static_cast<std::size_t>(m - 1)]) {
      emit(report, Severity::kError, "rw.positions", loc,
           "positions not strictly ascending at member " + std::to_string(m));
      return rc;
    }
  }
  const int block = ap.cfg.block_of(app.positions[0]);
  rc.landing = app.positions.back();
  for (const std::int32_t p : app.positions) {
    if (ap.cfg.block_of(p) != block) {
      emit(report, Severity::kError, "rw.positions", loc,
           "positions span basic blocks (" + std::to_string(block) +
               " and " + std::to_string(ap.cfg.block_of(p)) + ")");
      return rc;
    }
  }
  if (n_members < shape.min_length || n_members > shape.max_length) {
    emit(report, Severity::kError, "ext.length", loc,
         "sequence length " + std::to_string(n_members) + " outside [" +
             std::to_string(shape.min_length) + ", " +
             std::to_string(shape.max_length) + "]");
  }

  const std::int32_t block_first = ap.cfg.block(block).first;
  auto member_index_of = [&](std::int32_t q) {
    const auto it = std::lower_bound(app.positions.begin(),
                                     app.positions.end(), q);
    if (it != app.positions.end() && *it == q) {
      return static_cast<int>(it - app.positions.begin());
    }
    return -1;
  };

  // Sources are scanned only while every member so far is valid, so a
  // value produced inside the window always comes from a valid member.
  bool member_errors = false;
  for (int m = 0; m < n_members; ++m) {
    const std::int32_t p = app.positions[static_cast<std::size_t>(m)];
    const Instruction& ins = program.text[static_cast<std::size_t>(p)];
    if (!is_ext_candidate(ins.op)) {
      emit(report, Severity::kError, "ext.opcode-class", loc,
           "member at " + pos_loc(p) + " is '" + to_string(ins) +
               "': opcode is not PFU-eligible");
      member_errors = true;
      continue;
    }
    if (!dst_reg(ins)) {
      emit(report, Severity::kError, "ext.output", loc,
           "member at " + pos_loc(p) + " produces no register result");
      member_errors = true;
      continue;
    }
    const InstProfile& ip = ap.profile.at(p);
    if (ip.max_src_width > shape.max_width ||
        ip.max_result_width > shape.max_width) {
      emit(report, Severity::kError, "ext.width", loc,
           "member at " + pos_loc(p) + " profiled at " +
               std::to_string(std::max(ip.max_src_width,
                                       ip.max_result_width)) +
               " bits, over the " + std::to_string(shape.max_width) +
               "-bit ceiling");
      member_errors = true;
    }
    rc.width = std::max(rc.width, ip.max_src_width);

    const SrcRegs srcs = src_regs(ins);
    for (int s = 0; s < srcs.count && !member_errors; ++s) {
      const Reg r = srcs.reg[s];
      const std::int32_t def = last_writer_before(program, block_first, p, r);
      if (def >= 0 && member_index_of(def) >= 0) continue;  // a member's value
      // External value. Intern by register in first-use order (mirrors
      // window_view's slot assignment); the same register reached through
      // two different in-block definitions is not one external value.
      bool interned = false;
      for (std::size_t e = 0; e < rc.externals.size(); ++e) {
        if (rc.externals[e].reg != r) continue;
        if (rc.externals[e].def_pos != def) {
          emit(report, Severity::kError, "ext.inputs", loc,
               std::string(reg_name(r)) +
                   " reaches members from two different definitions (" +
                   std::to_string(rc.externals[e].def_pos) + " and " +
                   std::to_string(def) + ")");
          member_errors = true;
        }
        interned = true;
        break;
      }
      if (!interned && !member_errors) {
        if (static_cast<int>(rc.externals.size()) == shape.max_inputs) {
          std::string have;
          for (const ExternalInput& e : rc.externals) {
            have += std::string(reg_name(e.reg)) + ", ";
          }
          emit(report, Severity::kError, "ext.inputs", loc,
               "more than " + std::to_string(shape.max_inputs) +
                   " external register inputs (" + have +
                   std::string(reg_name(r)) + ")");
          member_errors = true;
        } else {
          rc.externals.push_back(ExternalInput{r, def});
        }
      }
    }
  }
  if (member_errors) return rc;

  // Output constraint: every intermediate value must either die inside the
  // window or surface as an extra EXT output within the shape budget. A
  // non-member reading it mid-window is always fatal (after the rewrite the
  // value only materializes at the landing point).
  bool output_errors = false;
  for (int m = 0; m + 1 < n_members; ++m) {
    const std::int32_t p = app.positions[static_cast<std::size_t>(m)];
    const Reg d = *dst_reg(program.text[static_cast<std::size_t>(p)]);
    bool redefined = false;
    for (std::int32_t q = p + 1; q <= rc.landing && !redefined; ++q) {
      const Instruction& ins = program.text[static_cast<std::size_t>(q)];
      const bool member = member_index_of(q) >= 0;
      if (!member && reads_reg(ins, d)) {
        emit(report, Severity::kError, "ext.output", loc,
             "intermediate " + std::string(reg_name(d)) + " (def at " +
                 pos_loc(p) + ") is read by non-member at " + pos_loc(q));
        output_errors = true;
      }
      if (writes_reg(ins, d)) redefined = true;
    }
    if (redefined ||
        !ap.liveness.live_after(program, ap.cfg, rc.landing).test(d)) {
      continue;  // the value dies inside the window: no output needed
    }
    // The primary output takes the first port.
    if (1 + static_cast<int>(rc.extra_outputs.size()) == shape.max_outputs) {
      emit(report, Severity::kError, "ext.output", loc,
           "intermediate " + std::string(reg_name(d)) + " (def at " +
               pos_loc(p) + ") is live after the landing point and no " +
               "output port is left (shape allows " +
               std::to_string(shape.max_outputs) + ")");
      output_errors = true;
      continue;
    }
    rc.extra_outputs.push_back(d);
  }

  // With every member valid and the shape validated, the one way the
  // recomputed micro-program is not a PFU configuration is its length.
  if (n_members > kMaxUops) {
    emit(report, Severity::kError, "ext.opcode-class", loc,
         "recomputed micro-program is not a valid PFU configuration: "
         "ExtInstDef: 1.." +
             std::to_string(kMaxUops) + " micro-ops required");
    return rc;
  }
  rc.usable = !output_errors;

  // The application's own claim must match what the program text says —
  // the rewriter encodes app.inputs/app.output/app.extra_outputs into the
  // EXT instruction.
  if (static_cast<int>(rc.externals.size()) != app.num_inputs) {
    emit(report, Severity::kError, "ext.inputs", loc,
         "application claims " + std::to_string(app.num_inputs) +
             " input(s), recomputation finds " +
             std::to_string(rc.externals.size()));
    rc.usable = false;
  } else {
    for (std::size_t e = 0; e < rc.externals.size(); ++e) {
      if (rc.externals[e].reg != app.inputs[e]) {
        emit(report, Severity::kError, "ext.inputs", loc,
             "input slot " + std::to_string(e) + " is " +
                 std::string(reg_name(rc.externals[e].reg)) +
                 " in the program but " +
                 std::string(reg_name(app.inputs[e])) +
                 " in the application");
        rc.usable = false;
      }
    }
  }
  const Reg output =
      *dst_reg(program.text[static_cast<std::size_t>(rc.landing)]);
  if (output != app.output) {
    emit(report, Severity::kError, "ext.output", loc,
         "output is " + std::string(reg_name(output)) +
             " in the program but " + std::string(reg_name(app.output)) +
             " in the application");
    rc.usable = false;
  }
  if (rc.extra_outputs != app.extra_outputs) {
    auto render = [](const std::vector<Reg>& regs) {
      std::string s = "{";
      for (std::size_t e = 0; e < regs.size(); ++e) {
        s += (e ? ", " : "") + std::string(reg_name(regs[e]));
      }
      return s + "}";
    };
    emit(report, Severity::kError, "ext.output", loc,
         "extra outputs are " + render(rc.extra_outputs) +
             " in the program but " + render(app.extra_outputs) +
             " in the application");
    rc.usable = false;
  }

  // Rewrite safety: after the rewrite, every input is read at the landing
  // position. A non-member writing an input register between its definition
  // and the landing point would feed the EXT a different value than the
  // original sequence saw.
  for (const ExternalInput& ext : rc.externals) {
    const std::int32_t start =
        ext.def_pos >= 0 ? ext.def_pos + 1 : block_first;
    for (std::int32_t q = start; q < rc.landing; ++q) {
      if (member_index_of(q) >= 0) continue;
      if (writes_reg(program.text[static_cast<std::size_t>(q)], ext.reg)) {
        emit(report, Severity::kError, "rw.clobber", loc,
             "input " + std::string(reg_name(ext.reg)) +
                 " is overwritten by non-member at " + pos_loc(q) +
                 " before the landing point " + pos_loc(rc.landing));
      }
    }
  }
  return rc;
}

// ---------------------------------------------------------------------------
// Bitwidth soundness: conservative static bound on the signed width of the
// value an instruction writes (depth-1 value-range argument; 32 = no bound).

int static_result_width(const Instruction& ins) {
  switch (ins.op) {
    case Opcode::kAndi:  // result in [0, zext(imm)]
      return signed_width(static_cast<std::uint32_t>(ins.imm) & 0xFFFF);
    case Opcode::kSrl:
      return ins.imm > 0 && ins.imm < 32 ? 33 - ins.imm : 32;
    case Opcode::kSlt:
    case Opcode::kSltu:
    case Opcode::kSlti:
    case Opcode::kSltiu:
      return 2;  // {0, 1} as a signed quantity
    case Opcode::kLb:
      return 8;
    case Opcode::kLbu:
      return 9;
    case Opcode::kLh:
      return 16;
    case Opcode::kLhu:
      return 17;
    case Opcode::kLui:
      return signed_width(static_cast<std::uint32_t>(ins.imm & 0xFFFF) << 16);
    default:
      return 32;
  }
}

void audit_widths(const AnalyzedProgram& ap, const Application& app,
                  std::size_t app_index, const Recomputed& rc,
                  const VerifyOptions& options, VerifyReport& report,
                  std::set<std::string>& seen_audit) {
  const Program& program = *ap.program;
  const int max_width = ap.extract.max_width;
  for (std::size_t e = 0; e < rc.externals.size(); ++e) {
    const ExternalInput& ext = rc.externals[e];
    if (ext.reg == kRegZero) {
      ++report.stats.width_static_proven;  // $zero is statically 1 bit wide
      continue;
    }
    const int bound =
        ext.def_pos >= 0
            ? static_result_width(
                  program.text[static_cast<std::size_t>(ext.def_pos)])
            : 32;
    if (bound <= max_width) {
      ++report.stats.width_static_proven;
      continue;
    }
    ++report.stats.width_profile_only;
    std::string entry =
        std::string(reg_name(ext.reg)) + " into " +
        app_loc(app.conf, app_index) + ": profiled " +
        std::to_string(rc.width) + "-bit, " +
        (ext.def_pos >= 0
             ? "def at " + pos_loc(ext.def_pos) + " ('" +
                   std::string(mnemonic(program
                                            .text[static_cast<std::size_t>(
                                                ext.def_pos)]
                                            .op)) +
                   "') has no static bound <= " + std::to_string(max_width)
             : "defined outside the block, no static bound");
    if (seen_audit.insert(entry).second) {
      report.width_audit.push_back(entry);
    }
    if (options.pedantic) {
      emit(report, Severity::kWarning, "width.profile-only",
           app_loc(app.conf, app_index),
           "selection relies on profile-only width claim for " +
               std::string(reg_name(ext.reg)));
    }
  }
}

}  // namespace

VerifyOptions verify_options_for(const SelectPolicy& policy) {
  VerifyOptions options;
  options.lut_budget = policy.lut_budget;
  return options;
}

VerifyReport verify_module(const Program& program, const ExtInstTable* table,
                           const VerifyOptions& options) {
  (void)options;
  VerifyReport report;
  const auto start = Clock::now();
  check_instruction_fields(program, table, report);
  // Field errors gate the deeper analyses: Cfg::build indexes by branch
  // target and the dataflow indexes by register number, so neither is safe
  // on a structurally broken module.
  if (report.errors() == 0) {
    const Cfg cfg = Cfg::build(program);
    check_defs_before_uses(program, cfg, report);
  }
  report.timing.wellformed_ms = ms_since(start);
  report.timing.total_ms = report.timing.wellformed_ms;
  return report;
}

VerifyReport verify_selection(const AnalyzedProgram& ap,
                              const Selection& selection,
                              const RewriteResult& rewrite,
                              const VerifyOptions& options) {
  const auto start_total = Clock::now();

  // Phase 1: the rewritten binary must be a well-formed module.
  VerifyReport report =
      verify_module(rewrite.program, &selection.table, options);

  // Config-level bookkeeping sanity.
  report.stats.configs = selection.table.size();
  report.stats.apps = static_cast<int>(selection.apps.size());
  for (int c = 0; c < selection.table.size(); ++c) {
    const std::size_t cs = static_cast<std::size_t>(c);
    if (cs < selection.lengths.size() &&
        selection.lengths[cs] != selection.table.at(
                                     static_cast<ConfId>(c)).length()) {
      emit(report, Severity::kError, "ext.length",
           "conf " + std::to_string(c),
           "recorded length " + std::to_string(selection.lengths[cs]) +
               " != configuration length " +
               std::to_string(selection.table.at(static_cast<ConfId>(c))
                                  .length()));
    }
  }

  // Phase 2: per-application legality against the original program.
  const auto start_legality = Clock::now();
  std::vector<Recomputed> recomputed;
  recomputed.reserve(selection.apps.size());
  std::set<std::int32_t> covered;
  std::vector<int> max_luts(static_cast<std::size_t>(selection.table.size()),
                            0);
  std::vector<char> conf_has_app(
      static_cast<std::size_t>(selection.table.size()), 0);
  for (std::size_t i = 0; i < selection.apps.size(); ++i) {
    const Application& app = selection.apps[i];
    for (const std::int32_t p : app.positions) {
      if (!covered.insert(p).second) {
        emit(report, Severity::kError, "rw.positions", app_loc(app.conf, i),
             pos_loc(p) + " is covered by more than one application");
      }
    }
    recomputed.push_back(recompute_app(ap, app, i, report));
    const Recomputed& rc = recomputed.back();

    if (app.conf >= static_cast<ConfId>(selection.table.size())) {
      emit(report, Severity::kError, "rw.landing", app_loc(app.conf, i),
           "Conf " + std::to_string(app.conf) + " not in the table");
      continue;
    }
    conf_has_app[app.conf] = 1;

    // The landing instruction in the rewritten binary must be the EXT this
    // application describes.
    if (rc.landing >= 0 &&
        rc.landing < static_cast<std::int32_t>(rewrite.index_map.size())) {
      const std::int32_t ni =
          rewrite.index_map[static_cast<std::size_t>(rc.landing)];
      const Instruction* ext =
          ni >= 0 && ni < rewrite.program.size()
              ? &rewrite.program.text[static_cast<std::size_t>(ni)]
              : nullptr;
      // Operand bindings beyond rs/rt/rd ride in the imm field; the packed
      // encoding must match the claim exactly (imm == 0 for the classic
      // 2-in/1-out shape).
      std::int32_t want_imm = 0;
      try {
        const std::vector<Reg> extra_in(
            app.inputs.begin() + std::min(app.num_inputs, 2),
            app.inputs.begin() +
                std::clamp(app.num_inputs, 0, kMaxExtInputs));
        want_imm = pack_ext_extras(extra_in, app.extra_outputs);
      } catch (const std::exception&) {
        want_imm = -1;  // unencodable claim: fails the comparison below
      }
      if (ext == nullptr || ext->op != Opcode::kExt ||
          ext->conf != app.conf || ext->rd != app.output ||
          ext->rs != (app.num_inputs > 0 ? app.inputs[0] : kRegZero) ||
          ext->rt != (app.num_inputs > 1 ? app.inputs[1] : kRegZero) ||
          ext->imm != want_imm) {
        emit(report, Severity::kError, "rw.landing", app_loc(app.conf, i),
             "rewritten instruction at new index " + std::to_string(ni) +
                 " does not encode this application's EXT");
      }
    }

    if (rc.usable) {
      const LutEstimate est =
          estimate_luts(selection.table.at(app.conf), rc.lut_widths());
      if (!est.fits(options.lut_budget)) {
        emit(report, Severity::kError, "ext.lut-budget", app_loc(app.conf, i),
             "recomputed estimate " + std::to_string(est.luts) +
                 " LUTs exceeds the " + std::to_string(options.lut_budget) +
                 "-LUT budget");
      }
      max_luts[app.conf] = std::max(max_luts[app.conf], est.luts);
    }
  }
  for (int c = 0; c < selection.table.size(); ++c) {
    const std::size_t cs = static_cast<std::size_t>(c);
    if (!conf_has_app[cs] || cs >= selection.lut_costs.size()) continue;
    if (selection.lut_costs[cs] > options.lut_budget) {
      emit(report, Severity::kError, "ext.lut-budget",
           "conf " + std::to_string(c),
           "recorded cost " + std::to_string(selection.lut_costs[cs]) +
               " LUTs exceeds the " + std::to_string(options.lut_budget) +
               "-LUT budget");
    }
    if (selection.lut_costs[cs] != max_luts[cs]) {
      emit(report, Severity::kError, "ext.lut-cost",
           "conf " + std::to_string(c),
           "recorded cost " + std::to_string(selection.lut_costs[cs]) +
               " LUTs != recomputed maximum " + std::to_string(max_luts[cs]));
    }
  }
  report.timing.legality_ms = ms_since(start_legality);

  // Phase 3: bitwidth-soundness audit.
  const auto start_width = Clock::now();
  std::set<std::string> seen_audit;
  for (std::size_t i = 0; i < selection.apps.size(); ++i) {
    if (!recomputed[i].usable) continue;
    audit_widths(ap, selection.apps[i], i, recomputed[i], options, report,
                 seen_audit);
  }
  report.timing.width_ms = ms_since(start_width);

  // Phase 4: translation validation (`equiv.*`, analysis/equiv.hpp) — the
  // rewritten binary against the baseline, independent of the per-app
  // legality recomputation above. Its `equiv.symbolic` rule is the one
  // proof that each EXT computes its member chain's function.
  const auto start_translation = Clock::now();
  check_translation(ap, selection, rewrite, report);
  report.timing.translation_ms = ms_since(start_translation);

  report.timing.total_ms = ms_since(start_total);
  return report;
}

}  // namespace t1000
