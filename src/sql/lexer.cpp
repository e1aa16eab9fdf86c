#include "sql/lexer.h"

#include <cstdlib>

#include "common/str_util.h"

namespace qpp::sql {

namespace {

// ASCII character classes: what <cctype> answers in the C locale, which is
// the only locale the library runs in (nothing calls setlocale).
bool IsDigit(char c) { return c >= '0' && c <= '9'; }

bool IsAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

bool IsIdentStart(char c) { return IsAlpha(c) || c == '_'; }

bool IsIdentCont(char c) { return IsAlpha(c) || IsDigit(c) || c == '_'; }

void FoldUpper(std::string* s) {
  for (char& c : *s) {
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
  }
}

void FoldLower(std::string* s) {
  for (char& c : *s) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
}

}  // namespace

Result<std::vector<Token>> Lex(const std::string& text) {
  std::vector<Token> out;
  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    const char c = text[i];
    if (IsSpace(c)) {
      ++i;
      continue;
    }
    // -- line comments
    if (c == '-' && i + 1 < n && text[i + 1] == '-') {
      while (i < n && text[i] != '\n') ++i;
      continue;
    }
    Token tok;
    tok.position = i;
    if (IsIdentStart(c)) {
      size_t j = i;
      while (j < n && IsIdentCont(text[j])) ++j;
      // Keywords come out upper-cased, identifiers lower-cased, both folded
      // in the token's own text.
      tok.text.assign(text, i, j - i);
      FoldUpper(&tok.text);
      if (IsReservedKeyword(tok.text)) {
        tok.type = TokenType::kKeyword;
      } else {
        tok.type = TokenType::kIdentifier;
        FoldLower(&tok.text);
      }
      out.push_back(std::move(tok));
      i = j;
      continue;
    }
    if (IsDigit(c) || (c == '.' && i + 1 < n && IsDigit(text[i + 1]))) {
      size_t j = i;
      bool is_float = false;
      while (j < n && IsDigit(text[j])) ++j;
      if (j < n && text[j] == '.') {
        is_float = true;
        ++j;
        while (j < n && IsDigit(text[j])) ++j;
      }
      if (j < n && (text[j] == 'e' || text[j] == 'E')) {
        size_t k = j + 1;
        if (k < n && (text[k] == '+' || text[k] == '-')) ++k;
        if (k < n && IsDigit(text[k])) {
          is_float = true;
          j = k;
          while (j < n && IsDigit(text[j])) ++j;
        }
      }
      tok.type = is_float ? TokenType::kNumber : TokenType::kInteger;
      tok.text.assign(text, i, j - i);
      tok.number = std::strtod(tok.text.c_str(), nullptr);
      out.push_back(std::move(tok));
      i = j;
      continue;
    }
    if (c == '\'') {
      size_t j = i + 1;
      bool closed = false;
      while (j < n) {
        if (text[j] == '\'') {
          if (j + 1 < n && text[j + 1] == '\'') {  // escaped quote
            tok.text.push_back('\'');
            j += 2;
            continue;
          }
          closed = true;
          ++j;
          break;
        }
        tok.text.push_back(text[j]);
        ++j;
      }
      if (!closed) {
        return Status::Error(StrFormat(
            "unterminated string literal at offset %zu", i));
      }
      tok.type = TokenType::kString;
      out.push_back(std::move(tok));
      i = j;
      continue;
    }
    // Multi-char operators first.
    tok.type = TokenType::kSymbol;
    if (c == '<' && i + 1 < n && (text[i + 1] == '=' || text[i + 1] == '>')) {
      tok.text.assign(text, i, 2);
      i += 2;
    } else if (c == '>' && i + 1 < n && text[i + 1] == '=') {
      tok.text = ">=";
      i += 2;
    } else if (c == '!' && i + 1 < n && text[i + 1] == '=') {
      tok.text = "<>";  // normalize != to <>
      i += 2;
    } else if (std::string_view("(),.*=<>+-/;").find(c) !=
               std::string_view::npos) {
      tok.text.assign(1, c);
      ++i;
    } else {
      return Status::Error(
          StrFormat("unexpected character '%c' at offset %zu", c, i));
    }
    out.push_back(std::move(tok));
  }
  Token end;
  end.type = TokenType::kEnd;
  end.position = n;
  out.push_back(std::move(end));
  return out;
}

}  // namespace qpp::sql
