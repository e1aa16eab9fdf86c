#include "common/str_util.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace qpp {

namespace {
/// One character with its ASCII letter lower-cased (std::tolower in the C
/// locale, without the locale lookup).
unsigned char FoldAscii(char c) {
  const auto u = static_cast<unsigned char>(c);
  return u >= 'A' && u <= 'Z' ? static_cast<unsigned char>(u - 'A' + 'a') : u;
}
}  // namespace

bool EqualsIgnoreCaseAscii(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (FoldAscii(a[i]) != FoldAscii(b[i])) return false;
  }
  return true;
}

bool LessIgnoreCaseAscii::operator()(std::string_view a,
                                     std::string_view b) const {
  const size_t n = a.size() < b.size() ? a.size() : b.size();
  for (size_t i = 0; i < n; ++i) {
    const unsigned char fa = FoldAscii(a[i]);
    const unsigned char fb = FoldAscii(b[i]);
    if (fa != fb) return fa < fb;
  }
  return a.size() < b.size();
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args2;
  va_copy(args2, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), static_cast<size_t>(n) + 1, fmt, args2);
  }
  va_end(args2);
  return out;
}

std::string FormatDuration(double seconds) {
  if (seconds < 0) return std::string("-").append(FormatDuration(-seconds));
  const int64_t total_ms = static_cast<int64_t>(std::llround(seconds * 1000.0));
  const int64_t ms = total_ms % 1000;
  const int64_t total_s = total_ms / 1000;
  const int64_t s = total_s % 60;
  const int64_t m = (total_s / 60) % 60;
  const int64_t h = total_s / 3600;
  return StrFormat("%02lld:%02lld:%02lld.%03lld", static_cast<long long>(h),
                   static_cast<long long>(m), static_cast<long long>(s),
                   static_cast<long long>(ms));
}

std::string FormatG(double v, int significant) {
  return StrFormat("%.*g", significant, v);
}

}  // namespace qpp
