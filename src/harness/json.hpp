// Minimal self-contained JSON value: build, serialize, and parse.
//
// The experiment engine uses JSON in three places: the `--json` export every
// bench/tool grew in this layer, the content-keyed on-disk result cache
// (entries are JSON files), and the determinism tests that compare a
// parallel grid run byte-for-byte with a serial one. That last use imposes
// the two properties this implementation guarantees and the standard
// library does not:
//
//  * object members keep insertion order (no hash/map reordering), and
//  * numbers render deterministically (integers exactly; doubles via
//    shortest-round-trip std::to_chars).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace t1000 {

class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Json {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  Json(std::nullptr_t) : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(int v) : type_(Type::kInt), int_(v) {}
  Json(long v) : type_(Type::kInt), int_(v) {}
  Json(long long v) : type_(Type::kInt), int_(v) {}
  Json(unsigned v) : type_(Type::kInt), int_(static_cast<std::int64_t>(v)) {}
  Json(unsigned long v) : Json(static_cast<unsigned long long>(v)) {}
  Json(unsigned long long v);  // throws JsonError above INT64_MAX
  Json(double v) : type_(Type::kDouble), double_(v) {}
  Json(const char* s) : type_(Type::kString), string_(s) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Json(std::string_view s) : type_(Type::kString), string_(s) {}

  static Json array() { return Json(Type::kArray); }
  static Json object() { return Json(Type::kObject); }

  template <typename T>
  static Json array_of(const std::vector<T>& values) {
    Json a = array();
    for (const T& v : values) a.push_back(Json(v));
    return a;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_int() const { return type_ == Type::kInt; }
  bool is_double() const { return type_ == Type::kDouble; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const;
  std::int64_t as_int() const;     // exact; throws on doubles with fraction
  std::uint64_t as_uint() const;   // as_int, rejecting negatives
  double as_double() const;        // ints promote
  const std::string& as_string() const;

  // Array access.
  std::size_t size() const;  // array/object element count
  const Json& at(std::size_t index) const;
  void push_back(Json value);
  const std::vector<Json>& items() const;

  // Object access. operator[] inserts a null member on first use (build
  // side); find/at are the lookup side.
  Json& operator[](std::string_view key);
  const Json* find(std::string_view key) const;  // nullptr when absent
  const Json& at(std::string_view key) const;    // throws when absent
  const std::vector<std::pair<std::string, Json>>& members() const;

  // Serialization. indent < 0 emits the compact single-line form used for
  // cache keys; indent >= 0 pretty-prints with that many spaces per level.
  std::string dump(int indent = -1) const;

  // Strict RFC-8259 parser (no comments, no trailing commas). Arrays and
  // objects may nest at most kMaxDepth levels deep; deeper input throws a
  // JsonError naming the limit and the offset.
  static constexpr int kMaxDepth = 256;
  static Json parse(std::string_view text);

  bool operator==(const Json& other) const;
  bool operator!=(const Json& other) const { return !(*this == other); }

 private:
  explicit Json(Type t) : type_(t) {}
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

// FNV-1a 64-bit, the engine's content-hash primitive (cache keys, program
// identity). Stable across platforms and runs by construction.
std::uint64_t fnv1a64(const void* data, std::size_t bytes,
                      std::uint64_t seed = 0xCBF29CE484222325ull);
std::uint64_t fnv1a64(std::string_view text,
                      std::uint64_t seed = 0xCBF29CE484222325ull);
std::string to_hex(std::uint64_t value);

// Writes `value` (pretty-printed, trailing newline) to `path`. Returns
// false and prints to stderr on I/O failure. Shared by the benches'
// finish_bench() and the tools' --json export.
bool write_json_file(const std::string& path, const Json& value);

}  // namespace t1000
