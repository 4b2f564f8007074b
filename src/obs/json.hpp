// Minimal JSON support for the observability layer: escaping and number
// formatting on the write side, and a small recursive-descent parser on the
// read side so analyze_trace and the tests can load the span/metrics files
// this codebase itself writes.  Deliberately tiny — this is not a general
// JSON library (no streaming, no comments, doubles only).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace swt {

/// Escape `s` for inclusion inside a JSON string literal (no quotes added).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Shortest round-trippable decimal representation; "null" for non-finite
/// values (JSON has no NaN/Inf tokens, and a bare `nan` would make the
/// whole document unparseable — NaN scores are reachable since the kernels
/// stopped skipping 0*NaN terms).  Consumers read such fields back through
/// JsonValue::number_or, which maps null to the caller's fallback.
[[nodiscard]] std::string json_number(double v);

/// Parsed JSON value.  Objects keep their keys sorted (std::map), which is
/// fine for every consumer here.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  [[nodiscard]] bool is_object() const noexcept { return kind == Kind::kObject; }
  [[nodiscard]] bool is_array() const noexcept { return kind == Kind::kArray; }
  [[nodiscard]] bool contains(const std::string& key) const {
    return kind == Kind::kObject && object.find(key) != object.end();
  }
  /// Member access with defaults; returns a null value for missing keys.
  [[nodiscard]] const JsonValue& at(const std::string& key) const;
  [[nodiscard]] double number_or(const std::string& key, double fallback) const;
  [[nodiscard]] std::string string_or(const std::string& key,
                                      const std::string& fallback) const;
};

/// Parse one JSON document; throws std::runtime_error on malformed input
/// (with a byte offset in the message), trailing garbage, or arrays and
/// objects nested more than 256 deep.
[[nodiscard]] JsonValue parse_json(std::string_view text);

}  // namespace swt
