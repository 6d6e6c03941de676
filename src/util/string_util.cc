#include "util/string_util.h"

#include <cstdio>

namespace ntadoc {

std::vector<std::string_view> SplitTokens(std::string_view text,
                                          std::string_view delims) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (start < text.size()) {
    const size_t end = text.find_first_of(delims, start);
    if (end == std::string_view::npos) {
      out.push_back(text.substr(start));
      break;
    }
    if (end > start) out.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string WithThousandsSeparators(uint64_t v) {
  std::string digits = std::to_string(v);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  const size_t n = digits.size();
  for (size_t i = 0; i < n; ++i) {
    if (i > 0 && (n - i) % 3 == 0) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

std::string HumanBytes(uint64_t bytes) {
  static constexpr const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(bytes);
  int unit = 0;
  while (v >= 1024.0 && unit < 4) {
    v /= 1024.0;
    ++unit;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), unit == 0 ? "%.0f %s" : "%.2f %s", v,
                kUnits[unit]);
  return buf;
}

std::string HumanDuration(uint64_t nanos) {
  char buf[32];
  const double ns = static_cast<double>(nanos);
  if (nanos < 1000ULL) {
    std::snprintf(buf, sizeof(buf), "%llu ns",
                  static_cast<unsigned long long>(nanos));
  } else if (nanos < 1000000ULL) {
    std::snprintf(buf, sizeof(buf), "%.2f us", ns / 1e3);
  } else if (nanos < 1000000000ULL) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", ns / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f s", ns / 1e9);
  }
  return buf;
}

std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

bool ParseFraction(std::string_view text, double* out, double above,
                   double max) {
  if (text.starts_with('-')) return false;
  double value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] =
      std::from_chars(text.data(), end, value, std::chars_format::fixed);
  // NaN fails both comparisons, so it is rejected with the range.
  if (ec != std::errc() || ptr != end || !(value > above && value <= max)) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace ntadoc
