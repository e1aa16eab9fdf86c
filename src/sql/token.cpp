#include "sql/token.h"

#include <set>

#include "common/str_util.h"

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

bool IsReservedKeyword(const std::string& upper) {
  static const std::set<std::string> kKeywords = {
      "SELECT", "FROM",  "WHERE",  "GROUP",  "BY",     "HAVING", "ORDER",
      "LIMIT",  "AS",    "AND",    "OR",     "NOT",    "IN",     "EXISTS",
      "BETWEEN", "JOIN", "INNER",  "LEFT",   "ON",     "ASC",    "DESC",
      "SUM",    "COUNT", "AVG",    "MIN",    "MAX",    "DISTINCT",
  };
  return kKeywords.count(upper) > 0;
}

}  // namespace qpp::sql
