// Minimal deterministic JSON value: parse + dump.
//
// Exists for the round-trippable artifacts the chaos fuzzer produces
// (ChaosPlan repro files, the tests/chaos_corpus/ regression corpus): every
// other JSON in the repo is write-only, but a replayable corpus needs a
// reader. Deliberately small:
//
//  * objects preserve insertion order (deterministic dump, no hash-map
//    iteration order in any artifact);
//  * integers stay exact (std::int64_t) and are distinguished from doubles;
//  * doubles dump via std::to_chars shortest round-trip form, so
//    parse(dump(v)) reproduces v bit for bit;
//  * parse throws std::runtime_error with an offset on malformed input.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace rpm::json {

class Value;

using Array = std::vector<Value>;
/// Insertion-ordered object (linear find: artifact objects are small).
using Object = std::vector<std::pair<std::string, Value>>;

class Value {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Value() : v_(nullptr) {}
  Value(std::nullptr_t) : v_(nullptr) {}
  Value(bool b) : v_(b) {}
  Value(std::int64_t i) : v_(i) {}
  Value(int i) : v_(static_cast<std::int64_t>(i)) {}
  Value(std::uint32_t i) : v_(static_cast<std::int64_t>(i)) {}
  Value(std::uint64_t i) : v_(static_cast<std::int64_t>(i)) {}
  Value(double d) : v_(d) {}
  Value(const char* s) : v_(std::string(s)) {}
  Value(std::string s) : v_(std::move(s)) {}
  Value(Array a) : v_(std::move(a)) {}
  Value(Object o) : v_(std::move(o)) {}

  [[nodiscard]] Type type() const;
  [[nodiscard]] bool is_null() const { return type() == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type() == Type::kBool; }
  [[nodiscard]] bool is_int() const { return type() == Type::kInt; }
  [[nodiscard]] bool is_double() const { return type() == Type::kDouble; }
  [[nodiscard]] bool is_number() const { return is_int() || is_double(); }
  [[nodiscard]] bool is_string() const { return type() == Type::kString; }
  [[nodiscard]] bool is_array() const { return type() == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type() == Type::kObject; }

  /// Checked accessors: throw std::runtime_error on type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;  // also accepts integral doubles
  [[nodiscard]] double as_double() const;     // accepts int
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object field lookup; nullptr when absent (or not an object).
  [[nodiscard]] const Value* find(std::string_view key) const;
  /// find() + checked accessors with a default when absent.
  [[nodiscard]] std::int64_t get_int(std::string_view key,
                                     std::int64_t dflt = 0) const;
  [[nodiscard]] double get_double(std::string_view key,
                                  double dflt = 0.0) const;
  [[nodiscard]] std::string get_string(std::string_view key,
                                       std::string dflt = "") const;
  [[nodiscard]] bool get_bool(std::string_view key, bool dflt = false) const;

  /// Build helpers (object only): appends, does not replace.
  void set(std::string key, Value v);

  /// Serialize. indent < 0: compact one-line; otherwise pretty-printed with
  /// `indent` spaces per level. Deterministic: same Value => same bytes.
  [[nodiscard]] std::string dump(int indent = -1) const;

  /// Parse a complete JSON document (trailing garbage is an error).
  static Value parse(std::string_view text);

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array,
               Object>
      v_;
};

/// Escape + quote a string into `out` (the repo-wide JSON string contract).
void append_quoted(std::string& out, std::string_view s);

/// Fixed-format number for the write-only dumps (metrics exports, diagnosis
/// logs): integral values print without a fraction ("42"), everything else
/// as %.9g. Deterministic across runs given identical doubles.
std::string fmt_double(double v);

}  // namespace rpm::json
