#include "isa/extdef.hpp"

#include <cassert>
#include <sstream>
#include <stdexcept>

#include "isa/alu.hpp"

namespace t1000 {
namespace {

std::string make_signature(int num_inputs, const std::vector<MicroOp>& uops,
                           const std::vector<std::int8_t>& out_slots) {
  std::ostringstream os;
  os << "in" << num_inputs;
  for (const MicroOp& u : uops) {
    os << ';' << mnemonic(u.op) << ' ' << static_cast<int>(u.dst) << ','
       << static_cast<int>(u.a) << ',' << static_cast<int>(u.b) << ','
       << u.imm;
  }
  // Single-output definitions keep the pre-MIMO signature (and thus the
  // historical Conf-id interning) byte-for-byte.
  if (out_slots.size() > 1) {
    os << ";out";
    for (std::size_t i = 0; i < out_slots.size(); ++i) {
      os << (i == 0 ? ' ' : ',') << static_cast<int>(out_slots[i]);
    }
  }
  return os.str();
}

void validate(int num_inputs, const std::vector<MicroOp>& uops,
              const std::vector<std::int8_t>& out_slots) {
  if (num_inputs < 0 || num_inputs > kMaxExtInputs) {
    throw std::invalid_argument("ExtInstDef: 0.." +
                                std::to_string(kMaxExtInputs) +
                                " inputs required");
  }
  if (uops.empty() || static_cast<int>(uops.size()) > kMaxUops) {
    throw std::invalid_argument("ExtInstDef: 1.." + std::to_string(kMaxUops) +
                                " micro-ops required");
  }
  const int base = num_inputs > 2 ? num_inputs : 2;
  int next_slot = base;  // slots below `base` are reserved for inputs
  for (const MicroOp& u : uops) {
    const OpKind k = op_kind(u.op);
    const bool alu_kind = k == OpKind::kAlu3 || k == OpKind::kShiftImm ||
                          k == OpKind::kAluImm || k == OpKind::kLui;
    if (!alu_kind) {
      throw std::invalid_argument("ExtInstDef: non-ALU micro-op");
    }
    auto check_src = [&](std::int8_t s) {
      if (s < 0 || s >= next_slot) {
        throw std::invalid_argument("ExtInstDef: bad source slot");
      }
      if (s >= base || s < num_inputs) return;
      throw std::invalid_argument("ExtInstDef: reads undefined input slot");
    };
    if (k == OpKind::kAlu3) {
      check_src(u.a);
      check_src(u.b);
    } else if (k != OpKind::kLui) {
      check_src(u.a);
    }
    if (u.dst != next_slot) {
      throw std::invalid_argument("ExtInstDef: dst slots must be sequential");
    }
    ++next_slot;
  }
  if (out_slots.empty() ||
      static_cast<int>(out_slots.size()) > kMaxExtOutputs) {
    throw std::invalid_argument("ExtInstDef: 1.." +
                                std::to_string(kMaxExtOutputs) +
                                " outputs required");
  }
  if (out_slots.front() != next_slot - 1) {
    throw std::invalid_argument(
        "ExtInstDef: primary output must be the final micro-op's slot");
  }
  for (std::size_t i = 0; i < out_slots.size(); ++i) {
    if (out_slots[i] < base || out_slots[i] >= next_slot) {
      throw std::invalid_argument("ExtInstDef: output slot out of range");
    }
    for (std::size_t j = i + 1; j < out_slots.size(); ++j) {
      if (out_slots[i] == out_slots[j]) {
        throw std::invalid_argument("ExtInstDef: duplicate output slot");
      }
    }
  }
}

// The micro-op loop behind eval and eval_multi: runs `uops` over `slots`
// (inputs already in place), writing each result to its dst slot, and
// returns the last result, which validate() makes the primary output.
std::uint32_t run_uops(const std::vector<MicroOp>& uops,
                       std::uint32_t* slots) {
  std::uint32_t result = 0;
  for (const MicroOp& u : uops) {
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    switch (op_kind(u.op)) {
      case OpKind::kAlu3:
        a = slots[u.a];
        b = slots[u.b];
        break;
      case OpKind::kShiftImm:
        a = slots[u.a];
        b = static_cast<std::uint32_t>(u.imm);
        break;
      case OpKind::kAluImm:
        a = slots[u.a];
        b = extend_imm(u.op, u.imm);
        break;
      case OpKind::kLui:
        b = static_cast<std::uint32_t>(u.imm) & 0xFFFF;
        break;
      default:
        assert(false);
    }
    result = eval_alu(u.op, a, b);
    slots[u.dst] = result;
  }
  return result;
}

}  // namespace

ExtInstDef::ExtInstDef(int num_inputs, std::vector<MicroOp> uops)
    : ExtInstDef(num_inputs, std::move(uops), std::vector<std::int8_t>{}) {}

ExtInstDef::ExtInstDef(int num_inputs, std::vector<MicroOp> uops,
                       std::vector<std::int8_t> out_slots)
    : num_inputs_(num_inputs),
      uops_(std::move(uops)),
      out_slots_(std::move(out_slots)) {
  if (out_slots_.empty() && !uops_.empty()) {
    out_slots_.push_back(uops_.back().dst);
  }
  validate(num_inputs_, uops_, out_slots_);
  signature_ = make_signature(num_inputs_, uops_, out_slots_);
}

int ExtInstDef::base_cycles() const {
  int cycles = 0;
  for (const MicroOp& u : uops_) cycles += base_latency(u.op);
  return cycles;
}

std::uint32_t ExtInstDef::eval(std::uint32_t in0, std::uint32_t in1) const {
  assert(num_inputs_ <= 2);
  std::uint32_t slots[kMaxExtInputs + kMaxUops] = {in0, in1};
  return run_uops(uops_, slots);
}

void ExtInstDef::eval_multi(
    const std::array<std::uint32_t, kMaxExtInputs>& in,
    std::array<std::uint32_t, kMaxExtOutputs>& out) const {
  std::uint32_t slots[kMaxExtInputs + kMaxUops] = {};
  for (int i = 0; i < num_inputs_; ++i) slots[i] = in[i];
  run_uops(uops_, slots);
  for (std::size_t i = 0; i < out_slots_.size(); ++i) {
    out[i] = slots[out_slots_[i]];
  }
}

ConfId ExtInstTable::intern(ExtInstDef def) {
  const auto it = by_signature_.find(def.signature());
  if (it != by_signature_.end()) return it->second;
  const ConfId id = static_cast<ConfId>(defs_.size());
  if (id >= (1u << kConfBits)) {
    throw std::length_error("ExtInstTable: Conf id space exhausted");
  }
  by_signature_.emplace(def.signature(), id);
  defs_.push_back(std::move(def));
  return id;
}

}  // namespace t1000
