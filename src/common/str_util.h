// Small string helpers shared by the SQL front end and report printers.
#pragma once

#include <string>
#include <vector>

namespace qpp {

/// Uppercases ASCII letters (SQL keywords are case-insensitive).
std::string ToUpperAscii(const std::string& s);

/// Lowercases ASCII letters.
std::string ToLowerAscii(const std::string& s);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// Splits on a single-character separator; keeps empty fields.
std::vector<std::string> Split(const std::string& s, char sep);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Renders seconds as hh:mm:ss.mmm (paper-style elapsed-time formatting).
std::string FormatDuration(double seconds);

/// Renders a double with engineering-friendly precision (used in reports).
std::string FormatG(double v, int significant = 4);

}  // namespace qpp
