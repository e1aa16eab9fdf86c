// Small string helpers shared by the SQL front end and report printers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace qpp {

/// True when `a` and `b` are equal once their ASCII letters are
/// lower-cased, compared in place.
bool EqualsIgnoreCaseAscii(std::string_view a, std::string_view b);

/// Orders strings as their ASCII-lower-cased forms order, compared in
/// place: a transparent comparator for maps looked up case-insensitively.
struct LessIgnoreCaseAscii {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const;
};

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Renders seconds as hh:mm:ss.mmm (paper-style elapsed-time formatting).
std::string FormatDuration(double seconds);

/// Renders a double with engineering-friendly precision (used in reports).
std::string FormatG(double v, int significant = 4);

}  // namespace qpp
