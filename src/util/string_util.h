// Small string helpers shared by the tokenizer, the container format and
// the benchmark report printers.

#ifndef NTADOC_UTIL_STRING_UTIL_H_
#define NTADOC_UTIL_STRING_UTIL_H_

#include <charconv>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace ntadoc {

/// Splits `text` on any character in `delims`, dropping empty pieces.
std::vector<std::string_view> SplitTokens(std::string_view text,
                                          std::string_view delims = " \t\r\n");

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// "1234567" -> "1,234,567".
std::string WithThousandsSeparators(uint64_t v);

/// Human-readable byte count: "3.2 MiB".
std::string HumanBytes(uint64_t bytes);

/// Human-readable duration from nanoseconds: "1.23 s", "45.1 ms", ...
std::string HumanDuration(uint64_t nanos);

/// Fixed-precision double formatting ("%.*f").
std::string FormatDouble(double v, int precision = 2);

/// Accepted range of a number parsed from a flag or argument, and the unit
/// it is scaled by (1 << 20 for the --*-mb= flags, 1000 for --deadline-us=).
struct NumberSpec {
  uint64_t min = 0;
  uint64_t max = std::numeric_limits<uint64_t>::max();
  uint64_t unit = 1;
};

/// All of `text` as an unsigned decimal in [spec.min, spec.max], stored
/// times spec.unit in *out. False, with *out untouched, on a sign, stray
/// characters or a value T cannot hold.
template <typename T>
bool ParseNumber(std::string_view text, T* out, NumberSpec spec = {}) {
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  const uint64_t limit =
      static_cast<uint64_t>(std::numeric_limits<T>::max()) / spec.unit;
  if (ec != std::errc() || ptr != end || value < spec.min ||
      value > spec.max || value > limit) {
    return false;
  }
  *out = static_cast<T>(value * spec.unit);
  return true;
}

/// All of `text` as a plain decimal fraction ("0.25", "2") greater than
/// `above` and at most `max`. False, with *out untouched, on a sign or an
/// exponent, stray characters, inf, nan or a value out of range.
bool ParseFraction(std::string_view text, double* out, double above,
                   double max);

}  // namespace ntadoc

#endif  // NTADOC_UTIL_STRING_UTIL_H_
