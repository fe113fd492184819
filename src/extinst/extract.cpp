#include "extinst/extract.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <optional>

namespace t1000 {
namespace {

// Per-block dataflow facts for chain growing.
struct BlockFacts {
  // For instruction position p (block-relative index r), src_def[r][s] is
  // the in-block position defining source s, or -1 when the value enters
  // the block live.
  std::vector<std::array<std::int32_t, 2>> src_def;
  // readers[r] = block positions reading the value defined at r.
  std::vector<std::vector<std::int32_t>> readers;
  // escapes[r] = true when the value defined at position r may be observed
  // after the block (not redefined before the end and live-out).
  std::vector<bool> escapes;
};

BlockFacts analyze_block(const Program& program, const BasicBlock& block,
                         const RegSet& live_out) {
  const int len = block.length();
  BlockFacts facts;
  facts.src_def.assign(static_cast<std::size_t>(len), {-1, -1});
  facts.readers.assign(static_cast<std::size_t>(len), {});
  facts.escapes.assign(static_cast<std::size_t>(len), false);

  std::array<std::int32_t, kNumRegs> last_def;
  last_def.fill(-1);
  for (std::int32_t p = block.first; p <= block.last; ++p) {
    const std::size_t r = static_cast<std::size_t>(p - block.first);
    const Instruction& ins = program.text[static_cast<std::size_t>(p)];
    const SrcRegs srcs = src_regs(ins);
    for (int s = 0; s < srcs.count; ++s) {
      const std::int32_t def = last_def[srcs.reg[s]];
      facts.src_def[r][static_cast<std::size_t>(s)] = def;
      if (def >= 0) {
        facts.readers[static_cast<std::size_t>(def - block.first)].push_back(p);
      }
    }
    // Calls may read any register: every outstanding def gains the call as
    // a reader so no chain fuses away a value the callee consumes.
    if (ins.op == Opcode::kJal || ins.op == Opcode::kJalr) {
      for (int reg = 0; reg < kNumRegs; ++reg) {
        const std::int32_t def = last_def[static_cast<std::size_t>(reg)];
        if (def >= 0) {
          facts.readers[static_cast<std::size_t>(def - block.first)].push_back(p);
        }
      }
    }
    if (const auto d = dst_reg(ins)) last_def[*d] = p;
  }
  // A def escapes when it is still its register's last def at block end and
  // the register is live-out.
  for (std::int32_t p = block.first; p <= block.last; ++p) {
    const Instruction& ins = program.text[static_cast<std::size_t>(p)];
    if (const auto d = dst_reg(ins)) {
      if (last_def[*d] == p && live_out.test(*d)) {
        facts.escapes[static_cast<std::size_t>(p - block.first)] = true;
      }
    }
  }
  return facts;
}

class ChainGrower {
 public:
  ChainGrower(const Program& program, const BasicBlock& block,
              const BlockFacts& facts, const Profile& profile,
              const ExtractPolicy& policy)
      : program_(program),
        block_(block),
        facts_(facts),
        profile_(profile),
        policy_(policy),
        used_(static_cast<std::size_t>(block.length()), false) {}

  std::vector<SeqSite> grow_all(int loop_id) {
    std::vector<SeqSite> sites;
    for (std::int32_t p = block_.first; p <= block_.last; ++p) {
      if (used_[rel(p)] || !is_candidate(p)) continue;
      SeqSite site = grow_from(p);
      site.block = block_.id;
      site.loop = loop_id;
      site.exec_count = profile_.at(p).count;
      if (site.length() >= policy_.min_length &&
          window_valid(program_, site, 0, site.length() - 1,
                       policy_.max_inputs, policy_.max_outputs)) {
        for (const std::int32_t q : site.positions) used_[rel(q)] = true;
        sites.push_back(std::move(site));
      }
    }
    return sites;
  }

 private:
  std::size_t rel(std::int32_t p) const {
    return static_cast<std::size_t>(p - block_.first);
  }

  bool is_candidate(std::int32_t p) const {
    const Instruction& ins = program_.text[static_cast<std::size_t>(p)];
    if (!is_ext_candidate(ins.op)) return false;
    if (!dst_reg(ins)) return false;
    const InstProfile& ip = profile_.at(p);
    if (policy_.require_executed && ip.count == 0) return false;
    if (ip.count > 0 && (ip.max_src_width > policy_.max_width ||
                         ip.max_result_width > policy_.max_width)) {
      return false;
    }
    return true;
  }

  // External inputs are (register, defining position) pairs; two different
  // defs of the same register cannot both feed one PFU operand port.
  struct ExternalInput {
    Reg reg;
    std::int32_t def_pos;  // -1 = enters the block live
    friend bool operator==(const ExternalInput&, const ExternalInput&) = default;
  };

  SeqSite grow_from(std::int32_t start) {
    SeqSite site;
    std::vector<ExternalInput> externals;

    auto add_member = [&](std::int32_t p) -> bool {
      const Instruction& ins = program_.text[static_cast<std::size_t>(p)];
      const SrcRegs srcs = src_regs(ins);
      std::array<SrcRef, 2> refs{};
      std::vector<ExternalInput> new_externals = externals;
      for (int s = 0; s < srcs.count; ++s) {
        const std::int32_t def = facts_.src_def[rel(p)][static_cast<std::size_t>(s)];
        // Is the def a chain member?
        int member = -1;
        for (int m = 0; m < site.length(); ++m) {
          if (site.positions[static_cast<std::size_t>(m)] == def) {
            member = m;
            break;
          }
        }
        if (member >= 0) {
          // Only links to the immediately preceding member keep the fused
          // dataflow a simple chain (double-links, e.g. x+x, are fine).
          if (member != site.length() - 1) return false;
          refs[static_cast<std::size_t>(s)] = {SrcRef::Kind::kMember,
                                               srcs.reg[s], member};
          continue;
        }
        // External: its def must predate the chain so the fused EXT reads
        // the same value.
        if (def >= 0 && !site.positions.empty() && def >= site.positions[0]) {
          return false;
        }
        const ExternalInput ext{srcs.reg[s], def};
        if (std::find(new_externals.begin(), new_externals.end(), ext) ==
            new_externals.end()) {
          // Same register with a different def is a conflict, not a new port.
          for (const ExternalInput& e : new_externals) {
            if (e.reg == ext.reg) return false;
          }
          new_externals.push_back(ext);
        }
        refs[static_cast<std::size_t>(s)] = {SrcRef::Kind::kExternal,
                                             srcs.reg[s], -1};
      }
      if (static_cast<int>(new_externals.size()) > policy_.max_inputs) {
        return false;
      }
      externals = std::move(new_externals);
      site.positions.push_back(p);
      site.srcs.push_back(refs);
      site.live.push_back(false);
      return true;
    };

    if (!add_member(start)) return site;

    // Extra-output budget: live interior members each claim one output port
    // beyond the primary.
    int live_budget = policy_.max_outputs - 1;
    while (site.length() < policy_.max_length) {
      const std::int32_t tail = site.positions.back();
      // The tail's value must have exactly one distinct reader, inside the
      // block. An escaping value normally ends the chain; with output ports
      // to spare the chain grows through it and the EXT preserves the value
      // as an extra output.
      const bool tail_escapes = facts_.escapes[rel(tail)];
      if (tail_escapes && live_budget == 0) break;
      const std::vector<std::int32_t>& readers = facts_.readers[rel(tail)];
      if (readers.empty()) break;
      const std::int32_t next = readers.front();
      bool single_reader = true;
      for (const std::int32_t q : readers) {
        if (q != next) {
          single_reader = false;
          break;
        }
      }
      if (!single_reader) break;
      if (used_[rel(next)] || !is_candidate(next)) break;

      if (!add_member(next)) break;
      if (tail_escapes) {
        site.live[static_cast<std::size_t>(site.length() - 2)] = true;
        --live_budget;
      }
    }
    return site;
  }

  const Program& program_;
  const BasicBlock& block_;
  const BlockFacts& facts_;
  const Profile& profile_;
  const ExtractPolicy& policy_;
  std::vector<bool> used_;
};

}  // namespace

std::string validate(const ExtractPolicy& policy) {
  struct Range {
    const char* field;
    int value;
    int hi;
  };
  for (const Range& r :
       {Range{"min_length", policy.min_length, kMaxUops},
        Range{"max_length", policy.max_length, kMaxUops},
        Range{"max_inputs", policy.max_inputs, kMaxExtInputs},
        Range{"max_outputs", policy.max_outputs, kMaxExtOutputs}}) {
    if (r.value < 1 || r.value > r.hi) {
      return std::string(r.field) + " must be in [1, " +
             std::to_string(r.hi) + "] (got " + std::to_string(r.value) + ")";
    }
  }
  return {};
}

std::vector<SeqSite> extract_sites(const Program& program, const Cfg& cfg,
                                   const Liveness& liveness,
                                   const Profile& profile,
                                   const ExtractPolicy& policy) {
  assert(validate(policy).empty());
  std::vector<SeqSite> sites;
  for (const BasicBlock& block : cfg.blocks()) {
    const BlockFacts facts = analyze_block(
        program, block, liveness.live_out[static_cast<std::size_t>(block.id)]);
    ChainGrower grower(program, block, facts, profile, policy);
    std::vector<SeqSite> block_sites =
        grower.grow_all(cfg.innermost_loop_of(block.id));
    sites.insert(sites.end(), std::make_move_iterator(block_sites.begin()),
                 std::make_move_iterator(block_sites.end()));
  }
  return sites;
}

}  // namespace t1000
