#include "harness/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

namespace t1000 {
namespace {

[[noreturn]] void type_error(const char* want, Json::Type got) {
  static const char* kNames[] = {"null",   "bool",  "int",   "double",
                                 "string", "array", "object"};
  throw JsonError(std::string("json: expected ") + want + ", have " +
                  kNames[static_cast<int>(got)]);
}

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;  // UTF-8 bytes pass through
        }
    }
  }
  out += '"';
}

void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) throw JsonError("json: non-finite number");
  char buf[32];
  // Shortest round-trip form: deterministic and locale-independent.
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) {
    throw JsonError("json: " + why + " at offset " + std::to_string(pos_));
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char get() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void expect(char c) {
    if (get() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  void expect_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) fail("invalid literal");
    pos_ += word.size();
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      // Containers recurse, so hostile nesting would overflow the stack
      // without a cap. fail() throws and the parser is discarded, so
      // depth_ needs no unwinding.
      if (++depth_ > Json::kMaxDepth) {
        fail("nesting deeper than " + std::to_string(Json::kMaxDepth) +
             " levels");
      }
      Json v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    switch (c) {
      case '"': return Json(parse_string());
      case 't': expect_word("true"); return Json(true);
      case 'f': expect_word("false"); return Json(false);
      case 'n': expect_word("null"); return Json(nullptr);
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') { ++pos_; return obj; }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[key] = parse_value();
      skip_ws();
      const char c = get();
      if (c == '}') return obj;
      if (c != ',') { --pos_; fail("expected ',' or '}'"); }
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') { ++pos_; return arr; }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = get();
      if (c == ']') return arr;
      if (c != ',') { --pos_; fail("expected ',' or ']'"); }
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = get();
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = get();
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = get();
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // Encode the code point as UTF-8 (surrogate pairs are not
          // combined; the engine never emits them).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9'))) {
      ++pos_;
    }
    bool is_double = false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_double = true;
      ++pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (tok.empty() || tok == "-") fail("invalid number");
    if (!is_double) {
      std::int64_t v = 0;
      const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), v);
      if (res.ec == std::errc() && res.ptr == tok.data() + tok.size()) {
        return Json(static_cast<long long>(v));
      }
      // Integer overflow: fall through to double.
    }
    double d = 0.0;
    const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), d);
    if (res.ec != std::errc() || res.ptr != tok.data() + tok.size()) {
      fail("invalid number");
    }
    return Json(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // containers open at pos_
};

}  // namespace

Json::Json(unsigned long long v) : type_(Type::kInt) {
  if (v > static_cast<unsigned long long>(
              std::numeric_limits<std::int64_t>::max())) {
    throw JsonError("json: integer exceeds int64 range");
  }
  int_ = static_cast<std::int64_t>(v);
}

bool Json::as_bool() const {
  if (type_ != Type::kBool) type_error("bool", type_);
  return bool_;
}

std::int64_t Json::as_int() const {
  if (type_ == Type::kInt) return int_;
  if (type_ == Type::kDouble) {
    // Converting a double outside the int64 range is undefined behaviour.
    if (!(double_ >= -0x1p63 && double_ < 0x1p63)) type_error("int", type_);
    const auto v = static_cast<std::int64_t>(double_);
    if (static_cast<double>(v) != double_) type_error("int", type_);
    return v;
  }
  type_error("int", type_);
}

std::uint64_t Json::as_uint() const {
  const std::int64_t v = as_int();
  if (v < 0) throw JsonError("json: expected non-negative integer");
  return static_cast<std::uint64_t>(v);
}

double Json::as_double() const {
  if (type_ == Type::kDouble) return double_;
  if (type_ == Type::kInt) return static_cast<double>(int_);
  type_error("number", type_);
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString) type_error("string", type_);
  return string_;
}

std::size_t Json::size() const {
  if (type_ == Type::kArray) return array_.size();
  if (type_ == Type::kObject) return object_.size();
  type_error("array or object", type_);
}

const Json& Json::at(std::size_t index) const {
  if (type_ != Type::kArray) type_error("array", type_);
  if (index >= array_.size()) throw JsonError("json: array index out of range");
  return array_[index];
}

void Json::push_back(Json value) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  if (type_ != Type::kArray) type_error("array", type_);
  array_.push_back(std::move(value));
}

const std::vector<Json>& Json::items() const {
  if (type_ != Type::kArray) type_error("array", type_);
  return array_;
}

Json& Json::operator[](std::string_view key) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  if (type_ != Type::kObject) type_error("object", type_);
  for (auto& [k, v] : object_) {
    if (k == key) return v;
  }
  object_.emplace_back(std::string(key), Json());
  return object_.back().second;
}

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::kObject) type_error("object", type_);
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* v = find(key);
  if (v == nullptr) throw JsonError("json: missing key '" + std::string(key) + "'");
  return *v;
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  if (type_ != Type::kObject) type_error("object", type_);
  return object_;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent < 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kInt: out += std::to_string(int_); break;
    case Type::kDouble: append_double(out, double_); break;
    case Type::kString: append_escaped(out, string_); break;
    case Type::kArray: {
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ',';
        newline(depth + 1);
        array_[i].dump_to(out, indent, depth + 1);
      }
      if (!array_.empty()) newline(depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out += ',';
        newline(depth + 1);
        append_escaped(out, object_[i].first);
        out += indent < 0 ? ":" : ": ";
        object_[i].second.dump_to(out, indent, depth + 1);
      }
      if (!object_.empty()) newline(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

bool Json::operator==(const Json& other) const {
  if (type_ != other.type_) {
    // int 3 == double 3.0, as in most JSON implementations.
    if (is_number() && other.is_number()) {
      return as_double() == other.as_double();
    }
    return false;
  }
  switch (type_) {
    case Type::kNull: return true;
    case Type::kBool: return bool_ == other.bool_;
    case Type::kInt: return int_ == other.int_;
    case Type::kDouble: return double_ == other.double_;
    case Type::kString: return string_ == other.string_;
    case Type::kArray: return array_ == other.array_;
    case Type::kObject: return object_ == other.object_;
  }
  return false;
}

std::uint64_t fnv1a64(const void* data, std::size_t bytes, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
  return h;
}

std::uint64_t fnv1a64(std::string_view text, std::uint64_t seed) {
  return fnv1a64(text.data(), text.size(), seed);
}

std::string to_hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return std::string(buf);
}

bool write_json_file(const std::string& path, const Json& value) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  os << value.dump(2) << "\n";
  if (!os.flush()) {
    std::fprintf(stderr, "error: short write to %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace t1000
