#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace rpm::json {

namespace {

[[noreturn]] void fail(std::string_view what, std::size_t off) {
  throw std::runtime_error("json: " + std::string(what) + " at offset " +
                           std::to_string(off));
}

struct Parser {
  std::string_view text;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < text.size()) {
      const char c = text[pos];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos;
    }
  }

  char peek() {
    if (pos >= text.size()) fail("unexpected end of input", pos);
    return text[pos];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'", pos);
    ++pos;
  }

  bool consume(std::string_view word) {
    if (text.substr(pos, word.size()) != word) return false;
    pos += word.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value(parse_string());
      case 't':
        if (consume("true")) return Value(true);
        fail("bad literal", pos);
      case 'f':
        if (consume("false")) return Value(false);
        fail("bad literal", pos);
      case 'n':
        if (consume("null")) return Value(nullptr);
        fail("bad literal", pos);
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos;
      return Value(std::move(obj));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos;
        continue;
      }
      if (c == '}') {
        ++pos;
        return Value(std::move(obj));
      }
      fail("expected ',' or '}'", pos);
    }
  }

  Value parse_array() {
    expect('[');
    Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos;
      return Value(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos;
        continue;
      }
      if (c == ']') {
        ++pos;
        return Value(std::move(arr));
      }
      fail("expected ',' or ']'", pos);
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos >= text.size()) fail("unterminated string", pos);
      const char c = text[pos++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= text.size()) fail("unterminated escape", pos);
      const char e = text[pos++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos + 4 > text.size()) fail("truncated \\u escape", pos);
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape", pos - 1);
          }
          // UTF-8 encode (no surrogate-pair support: artifacts are ASCII).
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: fail("bad escape", pos - 1);
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    bool integral = true;
    while (pos < text.size()) {
      const char c = text[pos];
      if (c >= '0' && c <= '9') {
        ++pos;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos;
      } else {
        break;
      }
    }
    const std::string_view tok = text.substr(start, pos - start);
    if (tok.empty() || tok == "-") fail("bad number", start);
    if (integral) {
      std::int64_t i = 0;
      const auto [p, ec] =
          std::from_chars(tok.data(), tok.data() + tok.size(), i);
      if (ec == std::errc() && p == tok.data() + tok.size()) return Value(i);
      // Fall through on overflow: reparse as double.
    }
    double d = 0.0;
    const auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), d);
    if (ec != std::errc() || p != tok.data() + tok.size()) {
      fail("bad number", start);
    }
    return Value(d);
  }
};

void dump_value(const Value& v, std::string& out, int indent, int depth);

void append_newline_indent(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

void dump_double(std::string& out, double d) {
  if (!std::isfinite(d)) {
    // JSON has no inf/nan; artifacts never contain them, but stay valid.
    out += "null";
    return;
  }
  char buf[64];
  const auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), d);
  out.append(buf, p);
  // Keep the value recognizably a double on re-parse.
  if (out.find_first_of(".eE", out.size() - static_cast<std::size_t>(p - buf)) ==
      std::string::npos) {
    out += ".0";
  }
}

void dump_value(const Value& v, std::string& out, int indent, int depth) {
  switch (v.type()) {
    case Value::Type::kNull: out += "null"; return;
    case Value::Type::kBool: out += v.as_bool() ? "true" : "false"; return;
    case Value::Type::kInt: out += std::to_string(v.as_int()); return;
    case Value::Type::kDouble: dump_double(out, v.as_double()); return;
    case Value::Type::kString: append_quoted(out, v.as_string()); return;
    case Value::Type::kArray: {
      const Array& a = v.as_array();
      if (a.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (i > 0) out += indent < 0 ? "," : ",";
        append_newline_indent(out, indent, depth + 1);
        dump_value(a[i], out, indent, depth + 1);
      }
      append_newline_indent(out, indent, depth);
      out += ']';
      return;
    }
    case Value::Type::kObject: {
      const Object& o = v.as_object();
      if (o.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (std::size_t i = 0; i < o.size(); ++i) {
        if (i > 0) out += ",";
        append_newline_indent(out, indent, depth + 1);
        append_quoted(out, o[i].first);
        out += indent < 0 ? ":" : ": ";
        dump_value(o[i].second, out, indent, depth + 1);
      }
      append_newline_indent(out, indent, depth);
      out += '}';
      return;
    }
  }
}

}  // namespace

void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

std::string fmt_double(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

Value::Type Value::type() const {
  switch (v_.index()) {
    case 0: return Type::kNull;
    case 1: return Type::kBool;
    case 2: return Type::kInt;
    case 3: return Type::kDouble;
    case 4: return Type::kString;
    case 5: return Type::kArray;
    default: return Type::kObject;
  }
}

bool Value::as_bool() const {
  if (!is_bool()) throw std::runtime_error("json: not a bool");
  return std::get<bool>(v_);
}

std::int64_t Value::as_int() const {
  if (is_int()) return std::get<std::int64_t>(v_);
  if (is_double()) {
    const double d = std::get<double>(v_);
    const auto i = static_cast<std::int64_t>(d);
    if (static_cast<double>(i) == d) return i;
  }
  throw std::runtime_error("json: not an integer");
}

double Value::as_double() const {
  if (is_double()) return std::get<double>(v_);
  if (is_int()) return static_cast<double>(std::get<std::int64_t>(v_));
  throw std::runtime_error("json: not a number");
}

const std::string& Value::as_string() const {
  if (!is_string()) throw std::runtime_error("json: not a string");
  return std::get<std::string>(v_);
}

const Array& Value::as_array() const {
  if (!is_array()) throw std::runtime_error("json: not an array");
  return std::get<Array>(v_);
}

const Object& Value::as_object() const {
  if (!is_object()) throw std::runtime_error("json: not an object");
  return std::get<Object>(v_);
}

const Value* Value::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : std::get<Object>(v_)) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::int64_t Value::get_int(std::string_view key, std::int64_t dflt) const {
  const Value* v = find(key);
  return v == nullptr ? dflt : v->as_int();
}

double Value::get_double(std::string_view key, double dflt) const {
  const Value* v = find(key);
  return v == nullptr ? dflt : v->as_double();
}

std::string Value::get_string(std::string_view key, std::string dflt) const {
  const Value* v = find(key);
  return v == nullptr ? std::move(dflt) : v->as_string();
}

bool Value::get_bool(std::string_view key, bool dflt) const {
  const Value* v = find(key);
  return v == nullptr ? dflt : v->as_bool();
}

void Value::set(std::string key, Value v) {
  if (!is_object()) v_ = Object{};
  std::get<Object>(v_).emplace_back(std::move(key), std::move(v));
}

std::string Value::dump(int indent) const {
  std::string out;
  out.reserve(256);
  dump_value(*this, out, indent, 0);
  return out;
}

Value Value::parse(std::string_view text) {
  Parser p{text};
  Value v = p.parse_value();
  p.skip_ws();
  if (p.pos != text.size()) fail("trailing characters", p.pos);
  return v;
}

}  // namespace rpm::json
