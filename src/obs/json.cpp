#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace swt {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
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
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  if (v == static_cast<double>(static_cast<long long>(v)) && std::fabs(v) < 1e15)
    return std::to_string(static_cast<long long>(v));
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  static const JsonValue null_value;
  if (kind != Kind::kObject) return null_value;
  const auto it = object.find(key);
  return it == object.end() ? null_value : it->second;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  const JsonValue& v = at(key);
  return v.kind == Kind::kNumber ? v.number : fallback;
}

std::string JsonValue::string_or(const std::string& key,
                                 const std::string& fallback) const {
  const JsonValue& v = at(key);
  return v.kind == Kind::kString ? v.string : fallback;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 256;

  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("parse_json: " + why + " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      // Containers recurse, so hostile input could otherwise nest deep
      // enough to overflow the stack.  The deepest document this codebase
      // writes nests a handful of levels.  A throw abandons the parser, so
      // the count needs no unwinding.
      if (++depth_ > kMaxDepth) fail("nesting deeper than " + std::to_string(kMaxDepth));
      JsonValue v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    switch (c) {
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.string = parse_string();
        return v;
      }
      case 't':
      case 'f': {
        JsonValue v;
        v.kind = JsonValue::Kind::kBool;
        v.boolean = c == 't';
        if (!consume_literal(c == 't' ? "true" : "false")) fail("bad literal");
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      }
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
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
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          const std::string hex(text_.substr(pos_, 4));
          pos_ += 4;
          const long code = std::strtol(hex.c_str(), nullptr, 16);
          // Only the control-character range we ever emit; everything else
          // in our files is raw UTF-8.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else {
            out += '?';
          }
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("malformed number '" + token + "'");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = value;
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< containers open around the current position
};

}  // namespace

JsonValue parse_json(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace swt
