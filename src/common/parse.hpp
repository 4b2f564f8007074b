// Full-consumption numeric parsing for CLI flags and text decoders.
//
// std::stol / std::stod accept "7abc" and abort the whole process with an
// uncaught std::invalid_argument on "abc" — both wrong for a command line or
// a file.  With these helpers the entire token must be one number
// (surrounding whitespace tolerated, anything else rejected), and failure is
// an empty optional the caller can turn into a usage error or a skipped
// line.  Header-only, so the lowest layer (src/obs) can use them too.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>

namespace swt {

namespace parse_detail {

/// Advance past trailing whitespace; the token is fully consumed iff the
/// remainder is empty.
[[nodiscard]] inline bool fully_consumed(const char* end) {
  while (*end == ' ' || *end == '\t' || *end == '\n' || *end == '\r') ++end;
  return *end == '\0';
}

}  // namespace parse_detail

/// Signed integer; rejects empty input, non-numeric input, trailing
/// garbage, and values outside the long range (ERANGE).
[[nodiscard]] inline std::optional<long> parse_long(const std::string& text) {
  if (text.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long n = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || !parse_detail::fully_consumed(end) || errno == ERANGE)
    return std::nullopt;
  return n;
}

/// parse_long narrowed to int; rejects values outside the int range.
[[nodiscard]] inline std::optional<int> parse_int(const std::string& text) {
  const std::optional<long> n = parse_long(text);
  if (!n.has_value() || *n < std::numeric_limits<int>::min() ||
      *n > std::numeric_limits<int>::max())
    return std::nullopt;
  return static_cast<int>(*n);
}

/// Unsigned 64-bit; additionally rejects a leading '-' (strtoull would
/// silently wrap it).
[[nodiscard]] inline std::optional<std::uint64_t> parse_u64(const std::string& text) {
  if (text.empty()) return std::nullopt;
  for (char c : text) {
    if (c == ' ' || c == '\t') continue;
    if (c == '-') return std::nullopt;
    break;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || !parse_detail::fully_consumed(end) || errno == ERANGE)
    return std::nullopt;
  return static_cast<std::uint64_t>(n);
}

/// Finite double (rejects overflowing input and explicit "inf"/"nan": no
/// CLI knob here means infinity).  Underflow is no error: a subnormal such
/// as "4.9406564584124654e-324", which the series CSV writer can emit,
/// reads back as itself.
[[nodiscard]] inline std::optional<double> parse_double(const std::string& text) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || !parse_detail::fully_consumed(end) || !std::isfinite(v))
    return std::nullopt;
  return v;
}

}  // namespace swt
