#include "sql/token.h"

namespace qpp::sql {

bool Token::IsKeyword(const char* kw) const {
  return type == TokenType::kKeyword && text == kw;
}

bool Token::IsSymbol(const char* sym) const {
  return type == TokenType::kSymbol && text == sym;
}

std::string Token::ToString() const {
  if (type == TokenType::kEnd) return "<end>";
  return text;
}

bool IsReservedKeyword(std::string_view upper) {
  static constexpr std::string_view kKeywords[] = {
      "SELECT", "FROM",  "WHERE",  "GROUP",  "BY",     "HAVING", "ORDER",
      "LIMIT",  "AS",    "AND",    "OR",     "NOT",    "IN",     "EXISTS",
      "BETWEEN", "JOIN", "INNER",  "LEFT",   "ON",     "ASC",    "DESC",
      "SUM",    "COUNT", "AVG",    "MIN",    "MAX",    "DISTINCT",
  };
  for (const std::string_view kw : kKeywords) {
    if (kw == upper) return true;
  }
  return false;
}

}  // namespace qpp::sql
