#include "isa/encoding.hpp"

#include <string>

namespace t1000 {
namespace {

// Primary opcode assignments.
enum : std::uint32_t {
  kOpSpecial = 0x00,
  kOpRegimm = 0x01,
  kOpJ = 0x02,
  kOpJal = 0x03,
  kOpBeq = 0x04,
  kOpBne = 0x05,
  kOpBlez = 0x06,
  kOpBgtz = 0x07,
  kOpAddiu = 0x09,
  kOpSlti = 0x0A,
  kOpSltiu = 0x0B,
  kOpAndi = 0x0C,
  kOpOri = 0x0D,
  kOpXori = 0x0E,
  kOpLui = 0x0F,
  kOpLb = 0x20,
  kOpLh = 0x21,
  kOpLw = 0x23,
  kOpLbu = 0x24,
  kOpLhu = 0x25,
  kOpSb = 0x28,
  kOpSh = 0x29,
  kOpSw = 0x2B,
  kOpExt = 0x3E,
};

// SPECIAL funct assignments.
enum : std::uint32_t {
  kFnSll = 0x00,
  kFnSrl = 0x02,
  kFnSra = 0x03,
  kFnSllv = 0x04,
  kFnSrlv = 0x06,
  kFnSrav = 0x07,
  kFnJr = 0x08,
  kFnJalr = 0x09,
  kFnMul = 0x18,
  kFnAddu = 0x21,
  kFnSubu = 0x23,
  kFnAnd = 0x24,
  kFnOr = 0x25,
  kFnXor = 0x26,
  kFnNor = 0x27,
  kFnSlt = 0x2A,
  kFnSltu = 0x2B,
  kFnHalt = 0x3F,
};

std::uint32_t fields(std::uint32_t op, std::uint32_t rs, std::uint32_t rt,
                     std::uint32_t rd, std::uint32_t shamt,
                     std::uint32_t funct) {
  return (op << 26) | (rs << 21) | (rt << 16) | (rd << 11) | (shamt << 6) |
         funct;
}

[[noreturn]] void fail(const std::string& what) { throw EncodingError(what); }

std::uint32_t check_u16(std::int64_t v, const char* what) {
  if (v < 0 || v > 0xFFFF) fail(std::string(what) + " out of 16-bit range");
  return static_cast<std::uint32_t>(v);
}

std::uint32_t check_s16(std::int64_t v, const char* what) {
  if (v < -0x8000 || v > 0x7FFF) {
    fail(std::string(what) + " out of signed 16-bit range");
  }
  return static_cast<std::uint32_t>(v) & 0xFFFF;
}

std::int32_t sext16(std::uint32_t v) {
  return static_cast<std::int32_t>(static_cast<std::int16_t>(v & 0xFFFF));
}

std::uint32_t branch_off(const Instruction& ins, std::uint32_t index) {
  const std::int64_t off =
      static_cast<std::int64_t>(ins.imm) - (static_cast<std::int64_t>(index) + 1);
  return check_s16(off, "branch displacement");
}

std::uint32_t r_funct(Opcode op) {
  switch (op) {
    case Opcode::kAddu: return kFnAddu;
    case Opcode::kSubu: return kFnSubu;
    case Opcode::kAnd: return kFnAnd;
    case Opcode::kOr: return kFnOr;
    case Opcode::kXor: return kFnXor;
    case Opcode::kNor: return kFnNor;
    case Opcode::kSlt: return kFnSlt;
    case Opcode::kSltu: return kFnSltu;
    case Opcode::kSllv: return kFnSllv;
    case Opcode::kSrlv: return kFnSrlv;
    case Opcode::kSrav: return kFnSrav;
    case Opcode::kMul: return kFnMul;
    default: fail("not an R-type opcode");
  }
}

std::uint32_t mem_op(Opcode op) {
  switch (op) {
    case Opcode::kLw: return kOpLw;
    case Opcode::kLh: return kOpLh;
    case Opcode::kLhu: return kOpLhu;
    case Opcode::kLb: return kOpLb;
    case Opcode::kLbu: return kOpLbu;
    case Opcode::kSw: return kOpSw;
    case Opcode::kSh: return kOpSh;
    case Opcode::kSb: return kOpSb;
    default: fail("not a memory opcode");
  }
}

std::uint32_t imm_op(Opcode op) {
  switch (op) {
    case Opcode::kAddiu: return kOpAddiu;
    case Opcode::kSlti: return kOpSlti;
    case Opcode::kSltiu: return kOpSltiu;
    case Opcode::kAndi: return kOpAndi;
    case Opcode::kOri: return kOpOri;
    case Opcode::kXori: return kOpXori;
    default: fail("not an ALU-immediate opcode");
  }
}

bool imm_is_zero_extended(Opcode op) {
  return op == Opcode::kAndi || op == Opcode::kOri || op == Opcode::kXori;
}

}  // namespace

std::uint32_t encode(const Instruction& ins, std::uint32_t index) {
  switch (op_kind(ins.op)) {
    case OpKind::kAlu3:
      return fields(kOpSpecial, ins.rs, ins.rt, ins.rd, 0, r_funct(ins.op));
    case OpKind::kShiftImm: {
      if (ins.imm < 0 || ins.imm > 31) fail("shift amount out of range");
      std::uint32_t funct = kFnSll;
      if (ins.op == Opcode::kSrl) funct = kFnSrl;
      if (ins.op == Opcode::kSra) funct = kFnSra;
      // The single source lives in the rt field, as in MIPS.
      return fields(kOpSpecial, 0, ins.rs, ins.rd,
                    static_cast<std::uint32_t>(ins.imm), funct);
    }
    case OpKind::kAluImm: {
      const std::uint32_t imm = imm_is_zero_extended(ins.op)
                                    ? check_u16(ins.imm, "immediate")
                                    : check_s16(ins.imm, "immediate");
      return fields(imm_op(ins.op), ins.rs, ins.rd, 0, 0, 0) | imm;
    }
    case OpKind::kLui:
      return fields(kOpLui, 0, ins.rd, 0, 0, 0) |
             check_u16(ins.imm & 0xFFFF, "immediate");
    case OpKind::kLoad:
      return fields(mem_op(ins.op), ins.rs, ins.rd, 0, 0, 0) |
             check_s16(ins.imm, "displacement");
    case OpKind::kStore:
      return fields(mem_op(ins.op), ins.rs, ins.rt, 0, 0, 0) |
             check_s16(ins.imm, "displacement");
    case OpKind::kBranch2: {
      const std::uint32_t op = ins.op == Opcode::kBeq ? kOpBeq : kOpBne;
      return fields(op, ins.rs, ins.rt, 0, 0, 0) | branch_off(ins, index);
    }
    case OpKind::kBranch1: {
      std::uint32_t op = 0;
      std::uint32_t rt = 0;
      switch (ins.op) {
        case Opcode::kBlez: op = kOpBlez; break;
        case Opcode::kBgtz: op = kOpBgtz; break;
        case Opcode::kBltz: op = kOpRegimm; rt = 0; break;
        case Opcode::kBgez: op = kOpRegimm; rt = 1; break;
        default: fail("unexpected branch opcode");
      }
      return fields(op, ins.rs, rt, 0, 0, 0) | branch_off(ins, index);
    }
    case OpKind::kJump: {
      if (ins.imm < 0 || ins.imm >= (1 << 26)) fail("jump target out of range");
      const std::uint32_t op = ins.op == Opcode::kJ ? kOpJ : kOpJal;
      return (op << 26) | static_cast<std::uint32_t>(ins.imm);
    }
    case OpKind::kJumpReg:
      if (ins.op == Opcode::kJr) {
        return fields(kOpSpecial, ins.rs, 0, 0, 0, kFnJr);
      }
      return fields(kOpSpecial, ins.rs, 0, ins.rd, 0, kFnJalr);
    case OpKind::kNop:
      return 0;
    case OpKind::kHalt:
      return fields(kOpSpecial, 0, 0, 0, 0, kFnHalt);
    case OpKind::kExt: {
      if (ins.conf >= (1u << kConfBits)) fail("Conf id out of range");
      // A MIMO EXT's extra operands live in imm, which the word has no
      // room for: dropping them would load back as a 2-in/1-out EXT.
      if (ins.imm != 0) {
        fail("EXT (Conf " + std::to_string(ins.conf) +
             ") has packed operands the 32-bit encoding cannot hold");
      }
      return fields(kOpExt, ins.rs, ins.rt, ins.rd, 0, 0) | ins.conf;
    }
  }
  fail("unencodable instruction");
}

Instruction decode(std::uint32_t word, std::uint32_t index) {
  if (word == 0) return make_nop();
  const std::uint32_t op = word >> 26;
  const Reg rs = static_cast<Reg>((word >> 21) & 31);
  const Reg rt = static_cast<Reg>((word >> 16) & 31);
  const Reg rd = static_cast<Reg>((word >> 11) & 31);
  const std::uint32_t shamt = (word >> 6) & 31;
  const std::uint32_t funct = word & 0x3F;
  const std::uint32_t imm16 = word & 0xFFFF;
  const std::int32_t simm = sext16(imm16);
  const std::int32_t btarget =
      static_cast<std::int32_t>(index) + 1 + sext16(imm16);

  switch (op) {
    case kOpSpecial:
      switch (funct) {
        case kFnSll: return make_shift(Opcode::kSll, rd, rt, static_cast<int>(shamt));
        case kFnSrl: return make_shift(Opcode::kSrl, rd, rt, static_cast<int>(shamt));
        case kFnSra: return make_shift(Opcode::kSra, rd, rt, static_cast<int>(shamt));
        case kFnSllv: return make_r(Opcode::kSllv, rd, rs, rt);
        case kFnSrlv: return make_r(Opcode::kSrlv, rd, rs, rt);
        case kFnSrav: return make_r(Opcode::kSrav, rd, rs, rt);
        case kFnJr: return make_jr(rs);
        case kFnJalr: return make_jalr(rd, rs);
        case kFnMul: return make_r(Opcode::kMul, rd, rs, rt);
        case kFnAddu: return make_r(Opcode::kAddu, rd, rs, rt);
        case kFnSubu: return make_r(Opcode::kSubu, rd, rs, rt);
        case kFnAnd: return make_r(Opcode::kAnd, rd, rs, rt);
        case kFnOr: return make_r(Opcode::kOr, rd, rs, rt);
        case kFnXor: return make_r(Opcode::kXor, rd, rs, rt);
        case kFnNor: return make_r(Opcode::kNor, rd, rs, rt);
        case kFnSlt: return make_r(Opcode::kSlt, rd, rs, rt);
        case kFnSltu: return make_r(Opcode::kSltu, rd, rs, rt);
        case kFnHalt: return make_halt();
        default: fail("unknown SPECIAL funct");
      }
    case kOpRegimm:
      if (rt == 0) return make_branch1(Opcode::kBltz, rs, btarget);
      if (rt == 1) return make_branch1(Opcode::kBgez, rs, btarget);
      fail("unknown REGIMM selector");
    case kOpJ: return make_jump(Opcode::kJ, static_cast<std::int32_t>(word & 0x3FFFFFF));
    case kOpJal: return make_jump(Opcode::kJal, static_cast<std::int32_t>(word & 0x3FFFFFF));
    case kOpBeq: return make_branch2(Opcode::kBeq, rs, rt, btarget);
    case kOpBne: return make_branch2(Opcode::kBne, rs, rt, btarget);
    case kOpBlez: return make_branch1(Opcode::kBlez, rs, btarget);
    case kOpBgtz: return make_branch1(Opcode::kBgtz, rs, btarget);
    case kOpAddiu: return make_imm(Opcode::kAddiu, rt, rs, simm);
    case kOpSlti: return make_imm(Opcode::kSlti, rt, rs, simm);
    case kOpSltiu: return make_imm(Opcode::kSltiu, rt, rs, simm);
    case kOpAndi: return make_imm(Opcode::kAndi, rt, rs, static_cast<std::int32_t>(imm16));
    case kOpOri: return make_imm(Opcode::kOri, rt, rs, static_cast<std::int32_t>(imm16));
    case kOpXori: return make_imm(Opcode::kXori, rt, rs, static_cast<std::int32_t>(imm16));
    case kOpLui: return make_lui(rt, static_cast<std::int32_t>(imm16));
    case kOpLw: return make_mem(Opcode::kLw, rt, rs, simm);
    case kOpLh: return make_mem(Opcode::kLh, rt, rs, simm);
    case kOpLhu: return make_mem(Opcode::kLhu, rt, rs, simm);
    case kOpLb: return make_mem(Opcode::kLb, rt, rs, simm);
    case kOpLbu: return make_mem(Opcode::kLbu, rt, rs, simm);
    case kOpSw: return make_mem(Opcode::kSw, rt, rs, simm);
    case kOpSh: return make_mem(Opcode::kSh, rt, rs, simm);
    case kOpSb: return make_mem(Opcode::kSb, rt, rs, simm);
    case kOpExt:
      return make_ext(rd, rs, rt, static_cast<ConfId>(word & ((1u << kConfBits) - 1)));
    default:
      fail("unknown primary opcode");
  }
}

}  // namespace t1000
