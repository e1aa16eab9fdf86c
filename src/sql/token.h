// Token stream definitions for the SQL subset.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace qpp::sql {

enum class TokenType {
  kIdentifier,   // table / column / alias names
  kKeyword,      // normalized upper-case SQL keyword
  kInteger,      // integer literal
  kNumber,       // floating-point literal
  kString,       // 'quoted string' (quotes stripped)
  kSymbol,       // punctuation / operators: ( ) , . * = <> <= >= < > + - /
  kEnd,          // end of input
};

struct Token {
  TokenType type = TokenType::kEnd;
  std::string text;       // keyword (upper-cased), identifier, symbol, or raw literal
  double number = 0.0;    // numeric value for kInteger/kNumber
  size_t position = 0;    // byte offset in the source, for error messages

  bool IsKeyword(const char* kw) const;
  bool IsSymbol(const char* sym) const;
  std::string ToString() const;
};

/// True if `word` (upper-cased) is a reserved keyword of the subset grammar.
bool IsReservedKeyword(std::string_view upper);

}  // namespace qpp::sql
