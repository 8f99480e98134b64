// The repo's one JSON writer, plus a minimal deterministic JSON value.
//
// `Writer` is the only code that writes JSON separators, escapes JSON
// strings or formats JSON numbers. Every artifact (flight dumps, chrome
// traces, diagnosis logs, profiles, chaos and fuzz reports, BENCH_*.json)
// streams through it, either into a std::string or, through write_file(),
// to a file in 64 KiB chunks, so a large artifact is never held whole.
//
// `Value` exists for the round-trippable artifacts the chaos fuzzer produces
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

#include <charconv>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <functional>
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

  /// Serialize: Layout::kCompact when indent < 0, otherwise Layout::kPretty
  /// (two spaces per level, the writer's one indent width). Deterministic:
  /// same Value => same bytes.
  [[nodiscard]] std::string dump(int indent = -1) const;

  /// Parse a complete JSON document (trailing garbage is an error).
  static Value parse(std::string_view text);

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array,
               Object>
      v_;
};

/// Output layout of a Writer:
///  kCompact     {"a":1,"b":[1,2]}
///  kPretty      Value::dump(2): one member or element per line, two spaces
///               per level, ": " after keys
///  kPrettyRows  kPretty down to depth 1; containers opened deeper print on
///               one line as {"a": 1, "b": 2}: one array row per line
/// Empty containers print as {} and [] in every layout.
enum class Layout { kCompact, kPretty, kPrettyRows };

/// Streaming JSON writer. Calls nest like the document they write
/// (begin_object, key, value, ..., end_object) and the writer inserts every
/// separator. Strings are escaped (", \, \n, \r, \t, other control
/// characters as \u00XX); numbers come in four forms, chosen per call.
class Writer {
 public:
  /// Appends to `out`.
  explicit Writer(std::string& out, Layout layout = Layout::kCompact);
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  Writer& begin_object() { return open('{'); }
  Writer& end_object() { return close('}'); }
  Writer& begin_array() { return open('['); }
  Writer& end_array() { return close(']'); }
  /// An object member's key; the next call writes its value.
  Writer& key(std::string_view k);

  Writer& string(std::string_view s);
  Writer& boolean(bool b) { return token(b ? "true" : "false"); }
  Writer& null() { return token("null"); }
  /// Exact integer.
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Writer& integer(T v) {
    char buf[24];
    return token({buf, std::to_chars(buf, buf + sizeof(buf), v).ptr});
  }
  /// Shortest round-trip form, with ".0" on integral values so they parse
  /// back as doubles (Value's form).
  Writer& shortest(double v);
  /// "%.0f" for integral values below 1e15, "%.9g" otherwise.
  Writer& number(double v);
  /// "%.<decimals>f".
  Writer& fixed(double v, int decimals) {
    return put_double(v, std::chars_format::fixed, decimals);
  }
  /// A whole Value, in this writer's layout.
  Writer& value(const Value& v);
  /// A line break after the finished document.
  Writer& newline() {
    *out_ += '\n';
    return *this;
  }

 private:
  friend bool write_file(const std::string& path, Layout layout,
                         const std::function<void(Writer&)>& body);
  Writer(std::FILE* file, Layout layout);
  void separate();
  void indent(std::size_t depth);
  Writer& open(char bracket);
  Writer& close(char bracket);
  /// One scalar, after its separator.
  Writer& token(std::string_view text);
  Writer& put_double(double v, std::chars_format fmt, int precision);
  void flush();

  std::string* out_;
  std::string buf_;               // file sink: pending bytes
  std::FILE* file_ = nullptr;     // file sink: destination
  bool ok_ = true;                // file sink: every write so far succeeded
  bool pretty_ = false;
  std::size_t row_depth_ = 0;     // containers this deep print as one row
  bool after_key_ = false;
  std::vector<std::size_t> counts_;  // per open container: items written
};

/// `body`'s document, rendered into a string.
template <typename Body>
std::string to_string(Body&& body, Layout layout = Layout::kCompact) {
  std::string out;
  Writer w(out, layout);
  body(w);
  return out;
}

/// Streams `body`'s document to `path` (created or truncated) through a
/// Writer whose bytes go out in 64 KiB chunks. Returns false when the file
/// cannot be opened, a write falls short, or the close fails.
bool write_file(const std::string& path, Layout layout,
                const std::function<void(Writer&)>& body);

}  // namespace rpm::json
