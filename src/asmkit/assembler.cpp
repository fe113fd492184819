#include "asmkit/assembler.hpp"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <optional>
#include <set>
#include <sstream>
#include <vector>

#include "isa/encoding.hpp"
#include "isa/opcode.hpp"
#include "isa/reg.hpp"

namespace t1000 {
namespace {

struct Stmt {
  int line = 0;
  std::vector<std::string> labels;
  std::string head;                   // mnemonic or directive (".word" etc.)
  std::vector<std::string> operands;  // comma-separated operand texts
};

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' ||
         c == '$';
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

// Strips comments, respecting double-quoted strings (.asciiz operands).
std::string_view strip_comment(std::string_view s) {
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '"') in_string = !in_string;
    if (in_string) continue;
    if (c == '#' || c == ';') return s.substr(0, i);
    if (c == '/' && i + 1 < s.size() && s[i + 1] == '/') return s.substr(0, i);
  }
  return s;
}

// Splits operand text on top-level commas (commas inside quotes are kept).
std::vector<std::string> split_operands(std::string_view s, int line) {
  std::vector<std::string> out;
  std::string cur;
  bool in_string = false;
  for (const char c : s) {
    if (c == '"') in_string = !in_string;
    if (c == ',' && !in_string) {
      out.emplace_back(trim(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (in_string) throw AsmError(line, "unterminated string literal");
  const std::string_view last = trim(cur);
  if (!last.empty()) out.emplace_back(last);
  for (const std::string& op : out) {
    if (op.empty()) throw AsmError(line, "empty operand");
  }
  return out;
}

std::vector<Stmt> parse_lines(std::string_view source) {
  std::vector<Stmt> stmts;
  int line_no = 0;
  std::size_t pos = 0;
  std::vector<std::string> pending_labels;
  while (pos <= source.size()) {
    const std::size_t eol = source.find('\n', pos);
    std::string_view line = source.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    ++line_no;
    pos = eol == std::string_view::npos ? source.size() + 1 : eol + 1;

    line = trim(strip_comment(line));
    // Peel leading "label:" prefixes.
    while (!line.empty()) {
      std::size_t i = 0;
      while (i < line.size() && is_ident_char(line[i])) ++i;
      if (i == 0 || i >= line.size() || line[i] != ':') break;
      pending_labels.emplace_back(line.substr(0, i));
      line = trim(line.substr(i + 1));
    }
    if (line.empty()) continue;

    Stmt st;
    st.line = line_no;
    st.labels = std::move(pending_labels);
    pending_labels.clear();
    std::size_t sp = 0;
    while (sp < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[sp]))) {
      ++sp;
    }
    st.head = std::string(line.substr(0, sp));
    st.operands = split_operands(trim(line.substr(sp)), line_no);
    stmts.push_back(std::move(st));
  }
  if (!pending_labels.empty()) {
    // Trailing labels attach to a synthetic end-of-text marker.
    Stmt st;
    st.line = line_no;
    st.labels = std::move(pending_labels);
    st.head = ".label-only";
    stmts.push_back(std::move(st));
  }
  return stmts;
}

std::optional<std::int64_t> parse_int(std::string_view s) {
  s = trim(s);
  bool neg = false;
  if (!s.empty() && (s.front() == '-' || s.front() == '+')) {
    neg = s.front() == '-';
    s.remove_prefix(1);
  }
  if (s.empty()) return std::nullopt;
  int base = 10;
  if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    base = 16;
    s.remove_prefix(2);
  }
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), value, base);
  if (ec != std::errc() || ptr != s.data() + s.size()) return std::nullopt;
  std::int64_t v = static_cast<std::int64_t>(value);
  return neg ? -v : v;
}

// True when `s` syntactically can be a label reference.
bool is_label_ref(std::string_view s) {
  return !s.empty() && (std::isalpha(static_cast<unsigned char>(s.front())) ||
                        s.front() == '_');
}

bool is_directive(const std::string& head) {
  return !head.empty() && head.front() == '.';
}

// How many instructions `li rd, v` expands to for the 32-bit pattern `v`.
// Shared by the sizing pass and emit_li: if the two ever disagree, every
// label downstream of the li shifts and branches silently retarget
// (t1000-verify's wf.use-before-def rule caught exactly that for
// `li $s0, 0xFFFFFFFF`, sized as lui+ori but emitted as one addiu).
int li_length(std::int32_t v) {
  if (v >= -0x8000 && v <= 0x7FFF) return 1;  // addiu $rd, $zero, v
  if ((v & 0xFFFF) == 0) return 1;            // lui $rd, hi(v)
  return 2;                                   // lui + ori
}

// How many instructions pseudo/real statement `st` expands to.
int instr_count(const Stmt& st) {
  const std::string& m = st.head;
  if (m == "la") return 2;
  if (m == "blt" || m == "bge" || m == "bgt" || m == "ble" || m == "bltu" ||
      m == "bgeu") {
    return 2;
  }
  if (m == "li") {
    if (st.operands.size() == 2) {
      if (const auto v = parse_int(st.operands[1])) {
        // imm_operand truncates immediates to their 32-bit pattern; size
        // the same value emit_li will see.
        return li_length(static_cast<std::int32_t>(*v));
      }
    }
    return 2;
  }
  return 1;
}

// The data segment spans [kDataBase, kStackTop); the stack grows down from
// its top.
constexpr std::uint32_t kMaxDataBytes = kStackTop - kDataBase;

class Assembler {
 public:
  explicit Assembler(std::string_view source) : stmts_(parse_lines(source)) {}

  Program run() {
    pass1();
    pass2();
    return std::move(prog_);
  }

 private:
  enum class Segment { kText, kData };

  void pass1() {
    Segment seg = Segment::kText;
    int text_index = 0;
    std::uint64_t data_off = 0;
    for (const Stmt& st : stmts_) {
      for (const std::string& label : st.labels) {
        const bool dup = prog_.text_symbols.count(label) != 0 ||
                         prog_.data_symbols.count(label) != 0;
        if (dup) throw AsmError(st.line, "duplicate label '" + label + "'");
        if (seg == Segment::kText) {
          prog_.text_symbols[label] = text_index;
        } else {
          prog_.data_symbols[label] =
              kDataBase + static_cast<std::uint32_t>(data_off);
        }
      }
      if (st.head == ".label-only") continue;
      if (st.head == ".text") { seg = Segment::kText; continue; }
      if (st.head == ".data") { seg = Segment::kData; continue; }
      if (is_directive(st.head)) {
        if (seg != Segment::kData) {
          throw AsmError(st.line, "data directive outside .data segment");
        }
        data_off += data_size(st, data_off);
        if (data_off > kMaxDataBytes) {
          throw AsmError(st.line, "data segment runs past the stack top");
        }
        continue;
      }
      if (seg != Segment::kText) {
        throw AsmError(st.line, "instruction outside .text segment");
      }
      text_index += instr_count(st);
    }
  }

  void pass2() {
    for (const Stmt& st : stmts_) {
      if (st.head == ".label-only" || st.head == ".text" ||
          st.head == ".data") {
        continue;
      }
      if (is_directive(st.head)) {
        emit_data(st);
        continue;
      }
      const std::size_t first = prog_.text.size();
      emit_instr(st);
      // Refuse on the statement's line what the binary encoding cannot
      // hold, so a program runs only if its object file could store it.
      for (std::size_t i = first; i < prog_.text.size(); ++i) {
        try {
          encode(prog_.text[i], static_cast<std::uint32_t>(i));
        } catch (const EncodingError& e) {
          throw AsmError(st.line, e.what());
        }
      }
    }
  }

  // --- data segment ---

  std::uint64_t data_size(const Stmt& st, std::uint64_t off) const {
    const std::string& d = st.head;
    if (d == ".word") return 4 * static_cast<std::uint32_t>(st.operands.size());
    if (d == ".half") return 2 * static_cast<std::uint32_t>(st.operands.size());
    if (d == ".byte") return static_cast<std::uint32_t>(st.operands.size());
    if (d == ".space") {
      const auto n = st.operands.size() == 1 ? parse_int(st.operands[0])
                                             : std::nullopt;
      if (!n || *n < 0) throw AsmError(st.line, ".space needs a size");
      return static_cast<std::uint64_t>(*n);
    }
    if (d == ".align") {
      const auto n = st.operands.size() == 1 ? parse_int(st.operands[0])
                                             : std::nullopt;
      if (!n || *n < 0 || *n > 12) throw AsmError(st.line, "bad .align");
      const std::uint64_t a = 1u << *n;
      return (a - (off % a)) % a;
    }
    if (d == ".asciiz") {
      return static_cast<std::uint32_t>(string_operand(st).size()) + 1;
    }
    throw AsmError(st.line, "unknown directive '" + d + "'");
  }

  std::string string_operand(const Stmt& st) const {
    if (st.operands.size() != 1 || st.operands[0].size() < 2 ||
        st.operands[0].front() != '"' || st.operands[0].back() != '"') {
      throw AsmError(st.line, ".asciiz needs one quoted string");
    }
    std::string out;
    const std::string& s = st.operands[0];
    for (std::size_t i = 1; i + 1 < s.size(); ++i) {
      char c = s[i];
      if (c == '\\' && i + 2 < s.size()) {
        ++i;
        switch (s[i]) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case '0': c = '\0'; break;
          case '\\': c = '\\'; break;
          case '"': c = '"'; break;
          default: throw AsmError(st.line, "unknown escape");
        }
      }
      out.push_back(c);
    }
    return out;
  }

  std::int64_t data_value(const Stmt& st, const std::string& text) const {
    if (const auto v = parse_int(text)) return *v;
    if (is_label_ref(text)) return resolve_address(st, text);
    throw AsmError(st.line, "bad data value '" + text + "'");
  }

  void emit_data(const Stmt& st) {
    const std::string& d = st.head;
    auto push = [this](std::int64_t v, int bytes) {
      for (int i = 0; i < bytes; ++i) {
        prog_.data.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
      }
    };
    if (d == ".word") {
      for (const std::string& op : st.operands) push(data_value(st, op), 4);
    } else if (d == ".half") {
      for (const std::string& op : st.operands) push(data_value(st, op), 2);
    } else if (d == ".byte") {
      for (const std::string& op : st.operands) push(data_value(st, op), 1);
    } else if (d == ".space" || d == ".align") {
      const std::uint64_t n = data_size(st, prog_.data.size());
      prog_.data.insert(prog_.data.end(), n, 0);
    } else if (d == ".asciiz") {
      for (const char c : string_operand(st)) {
        prog_.data.push_back(static_cast<std::uint8_t>(c));
      }
      prog_.data.push_back(0);
    } else {
      throw AsmError(st.line, "unknown directive '" + d + "'");
    }
  }

  // --- text segment ---

  Reg reg_operand(const Stmt& st, std::size_t i) const {
    if (i >= st.operands.size()) throw AsmError(st.line, "missing operand");
    const int r = parse_reg(st.operands[i]);
    if (r < 0) {
      throw AsmError(st.line, "bad register '" + st.operands[i] + "'");
    }
    return static_cast<Reg>(r);
  }

  std::int32_t imm_operand(const Stmt& st, std::size_t i) const {
    if (i >= st.operands.size()) throw AsmError(st.line, "missing operand");
    if (const auto v = parse_int(st.operands[i])) {
      return static_cast<std::int32_t>(*v);
    }
    throw AsmError(st.line, "bad immediate '" + st.operands[i] + "'");
  }

  // Resolves a label (or "@N") to a *text index*.
  std::int32_t target_operand(const Stmt& st, std::size_t i) const {
    if (i >= st.operands.size()) throw AsmError(st.line, "missing target");
    const std::string& t = st.operands[i];
    if (!t.empty() && t.front() == '@') {
      if (const auto v = parse_int(std::string_view(t).substr(1))) {
        return static_cast<std::int32_t>(*v);
      }
      throw AsmError(st.line, "bad target '" + t + "'");
    }
    const auto it = prog_.text_symbols.find(t);
    if (it == prog_.text_symbols.end()) {
      throw AsmError(st.line, "undefined label '" + t + "'");
    }
    return it->second;
  }

  // Resolves a data or text label to a byte address (for .word / la).
  std::int64_t resolve_address(const Stmt& st, const std::string& name) const {
    if (const auto it = prog_.data_symbols.find(name);
        it != prog_.data_symbols.end()) {
      return it->second;
    }
    if (const auto it = prog_.text_symbols.find(name);
        it != prog_.text_symbols.end()) {
      return kTextBase + static_cast<std::uint32_t>(it->second) * 4;
    }
    throw AsmError(st.line, "undefined label '" + name + "'");
  }

  // Parses "disp(base)" or "(base)" or "label" (absolute data address with
  // $zero base is rejected - displacement must fit 16 bits).
  void mem_operand(const Stmt& st, std::size_t i, Reg* base,
                   std::int32_t* disp) const {
    if (i >= st.operands.size()) throw AsmError(st.line, "missing operand");
    const std::string& t = st.operands[i];
    const std::size_t open = t.find('(');
    if (open == std::string::npos || t.back() != ')') {
      throw AsmError(st.line, "bad memory operand '" + t + "'");
    }
    const std::string_view disp_text = trim(std::string_view(t).substr(0, open));
    const std::string_view base_text =
        trim(std::string_view(t).substr(open + 1, t.size() - open - 2));
    *disp = 0;
    if (!disp_text.empty()) {
      if (const auto v = parse_int(disp_text)) {
        *disp = static_cast<std::int32_t>(*v);
      } else {
        throw AsmError(st.line, "bad displacement");
      }
    }
    const int r = parse_reg(base_text);
    if (r < 0) throw AsmError(st.line, "bad base register");
    *base = static_cast<Reg>(r);
  }

  void expect_operands(const Stmt& st, std::size_t n) const {
    if (st.operands.size() != n) {
      throw AsmError(st.line, "expected " + std::to_string(n) +
                                  " operands, got " +
                                  std::to_string(st.operands.size()));
    }
  }

  void push(const Instruction& ins) { prog_.text.push_back(ins); }

  void emit_li(const Stmt& st) {
    expect_operands(st, 2);
    const Reg rd = reg_operand(st, 0);
    const std::int32_t v = imm_operand(st, 1);
    const std::int32_t hi = static_cast<std::int32_t>(
        (static_cast<std::uint32_t>(v) >> 16) & 0xFFFF);
    if (li_length(v) == 1) {
      if (v >= -0x8000 && v <= 0x7FFF) {
        push(make_imm(Opcode::kAddiu, rd, kRegZero, v));
      } else {
        push(make_lui(rd, hi));  // low half is zero
      }
    } else {
      push(make_lui(rd, hi));
      push(make_imm(Opcode::kOri, rd, rd, v & 0xFFFF));
    }
  }

  void emit_la(const Stmt& st) {
    expect_operands(st, 2);
    const Reg rd = reg_operand(st, 0);
    if (!is_label_ref(st.operands[1])) {
      throw AsmError(st.line, "la needs a label");
    }
    const std::int64_t addr = resolve_address(st, st.operands[1]);
    push(make_lui(rd, static_cast<std::int32_t>((addr >> 16) & 0xFFFF)));
    push(make_imm(Opcode::kOri, rd, rd, static_cast<std::int32_t>(addr & 0xFFFF)));
  }

  void emit_cmp_branch(const Stmt& st) {
    expect_operands(st, 3);
    const Reg rs = reg_operand(st, 0);
    const Reg rt = reg_operand(st, 1);
    const std::int32_t target = target_operand(st, 2);
    const std::string& m = st.head;
    const bool unsigned_cmp = m == "bltu" || m == "bgeu";
    const Opcode slt = unsigned_cmp ? Opcode::kSltu : Opcode::kSlt;
    if (m == "blt" || m == "bltu") {
      push(make_r(slt, kRegAt, rs, rt));
      push(make_branch2(Opcode::kBne, kRegAt, kRegZero, target));
    } else if (m == "bge" || m == "bgeu") {
      push(make_r(slt, kRegAt, rs, rt));
      push(make_branch2(Opcode::kBeq, kRegAt, kRegZero, target));
    } else if (m == "bgt") {
      push(make_r(slt, kRegAt, rt, rs));
      push(make_branch2(Opcode::kBne, kRegAt, kRegZero, target));
    } else {  // ble
      push(make_r(slt, kRegAt, rt, rs));
      push(make_branch2(Opcode::kBeq, kRegAt, kRegZero, target));
    }
  }

  void emit_instr(const Stmt& st) {
    const std::string& m = st.head;
    // Pseudo-instructions first.
    if (m == "li") { emit_li(st); return; }
    if (m == "la") { emit_la(st); return; }
    if (m == "move") {
      expect_operands(st, 2);
      push(make_r(Opcode::kAddu, reg_operand(st, 0), reg_operand(st, 1),
                  kRegZero));
      return;
    }
    if (m == "b") {
      expect_operands(st, 1);
      push(make_branch2(Opcode::kBeq, kRegZero, kRegZero,
                        target_operand(st, 0)));
      return;
    }
    if (m == "not") {
      expect_operands(st, 2);
      push(make_r(Opcode::kNor, reg_operand(st, 0), reg_operand(st, 1),
                  kRegZero));
      return;
    }
    if (m == "neg") {
      expect_operands(st, 2);
      push(make_r(Opcode::kSubu, reg_operand(st, 0), kRegZero,
                  reg_operand(st, 1)));
      return;
    }
    if (m == "blt" || m == "bge" || m == "bgt" || m == "ble" || m == "bltu" ||
        m == "bgeu") {
      emit_cmp_branch(st);
      return;
    }

    const Opcode op = parse_mnemonic(m);
    if (op == Opcode::kNumOpcodes) {
      throw AsmError(st.line, "unknown mnemonic '" + m + "'");
    }
    switch (op_kind(op)) {
      case OpKind::kAlu3:
        expect_operands(st, 3);
        push(make_r(op, reg_operand(st, 0), reg_operand(st, 1),
                    reg_operand(st, 2)));
        return;
      case OpKind::kShiftImm: {
        expect_operands(st, 3);
        const std::int32_t sh = imm_operand(st, 2);
        if (sh < 0 || sh > 31) throw AsmError(st.line, "bad shift amount");
        push(make_shift(op, reg_operand(st, 0), reg_operand(st, 1), sh));
        return;
      }
      case OpKind::kAluImm:
        expect_operands(st, 3);
        push(make_imm(op, reg_operand(st, 0), reg_operand(st, 1),
                      imm_operand(st, 2)));
        return;
      case OpKind::kLui: {
        expect_operands(st, 2);
        // The encoder keeps only the low half; refuse the rest rather
        // than truncate it.
        const std::int32_t imm = imm_operand(st, 1);
        if (imm < 0 || imm > 0xFFFF) {
          throw AsmError(st.line, "immediate out of 16-bit range");
        }
        push(make_lui(reg_operand(st, 0), imm));
        return;
      }
      case OpKind::kLoad:
      case OpKind::kStore: {
        expect_operands(st, 2);
        Reg base = 0;
        std::int32_t disp = 0;
        mem_operand(st, 1, &base, &disp);
        push(make_mem(op, reg_operand(st, 0), base, disp));
        return;
      }
      case OpKind::kBranch2:
        expect_operands(st, 3);
        push(make_branch2(op, reg_operand(st, 0), reg_operand(st, 1),
                          target_operand(st, 2)));
        return;
      case OpKind::kBranch1:
        expect_operands(st, 2);
        push(make_branch1(op, reg_operand(st, 0), target_operand(st, 1)));
        return;
      case OpKind::kJump:
        expect_operands(st, 1);
        push(make_jump(op, target_operand(st, 0)));
        return;
      case OpKind::kJumpReg:
        if (op == Opcode::kJr) {
          expect_operands(st, 1);
          push(make_jr(reg_operand(st, 0)));
        } else {
          expect_operands(st, 2);
          push(make_jalr(reg_operand(st, 0), reg_operand(st, 1)));
        }
        return;
      case OpKind::kNop:
        expect_operands(st, 0);
        push(make_nop());
        return;
      case OpKind::kHalt:
        expect_operands(st, 0);
        push(make_halt());
        return;
      case OpKind::kExt: {
        expect_operands(st, 4);
        const std::int32_t conf = imm_operand(st, 3);
        if (conf < 0 || conf >= (1 << kConfBits)) {
          throw AsmError(st.line, "Conf id out of range");
        }
        push(make_ext(reg_operand(st, 0), reg_operand(st, 1),
                      reg_operand(st, 2), static_cast<ConfId>(conf)));
        return;
      }
    }
    throw AsmError(st.line, "unhandled mnemonic '" + m + "'");
  }

  std::vector<Stmt> stmts_;
  Program prog_;
};

}  // namespace

Program assemble(std::string_view source) { return Assembler(source).run(); }

std::string disassemble(const Program& program) {
  // Collect branch/jump targets so they get labels.
  std::set<std::int32_t> targets;
  for (const Instruction& ins : program.text) {
    if (is_branch(ins.op) || op_kind(ins.op) == OpKind::kJump) {
      targets.insert(ins.imm);
    }
  }
  std::ostringstream os;
  os << "        .text\n";
  for (int i = 0; i < program.size(); ++i) {
    if (targets.count(i) != 0) os << "L" << i << ":\n";
    const Instruction& ins = program.text[static_cast<std::size_t>(i)];
    std::string body = to_string(ins);
    // Replace "@N" targets with the synthesized label names.
    const std::size_t at = body.find('@');
    if (at != std::string::npos) {
      body = body.substr(0, at) + "L" + body.substr(at + 1);
    }
    // "conf=N" -> plain operand for re-assembly.
    const std::size_t conf = body.find("conf=");
    if (conf != std::string::npos) {
      body = body.substr(0, conf) + body.substr(conf + 5);
    }
    os << "        " << body << "\n";
  }
  if (targets.count(program.size()) != 0) os << "L" << program.size() << ":\n";
  if (!program.data.empty()) {
    os << "        .data\n";
    for (const std::uint8_t byte : program.data) {
      os << "        .byte " << static_cast<int>(byte) << "\n";
    }
  }
  return os.str();
}

}  // namespace t1000
