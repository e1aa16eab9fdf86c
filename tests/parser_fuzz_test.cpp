// Parser robustness: random byte soup and mutated valid queries must never
// crash or hang — only parse successfully or return an error Status.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sql/parser.h"
#include "workload/tpcds_templates.h"

namespace qpp::sql {
namespace {

// Splits on a single-character separator, keeping empty fields.
std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

TEST(ParserFuzzTest, RandomPrintableSoupNeverCrashes) {
  Rng rng(0xF00Dull);
  const std::string alphabet =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
      " \t\n()*,.'<>=+-/;_";
  for (int iter = 0; iter < 2000; ++iter) {
    const size_t len = static_cast<size_t>(rng.UniformInt(0, 120));
    std::string text;
    text.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      text.push_back(alphabet[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(alphabet.size()) - 1))]);
    }
    // Must not throw; ok() either way.
    const auto result = Parse(text);
    (void)result.ok();
  }
}

TEST(ParserFuzzTest, RandomBytesNeverCrash) {
  Rng rng(0xB17E5);
  for (int iter = 0; iter < 1000; ++iter) {
    const size_t len = static_cast<size_t>(rng.UniformInt(0, 64));
    std::string text;
    for (size_t i = 0; i < len; ++i) {
      text.push_back(static_cast<char>(rng.UniformInt(1, 255)));
    }
    const auto result = Parse(text);
    (void)result.ok();
  }
}

TEST(ParserFuzzTest, MutatedValidQueriesNeverCrash) {
  // Take real template SQL and corrupt it: truncate, splice, duplicate,
  // and character-flip. The parser must return a Status, never throw.
  const auto templates = workload::TpcdsTemplates();
  Rng rng(0x5EED);
  size_t parsed_ok = 0, rejected = 0;
  for (int iter = 0; iter < 1500; ++iter) {
    const auto& tmpl = templates[iter % templates.size()];
    Rng inst(rng.NextU64());
    std::string sql = tmpl.instantiate(inst);
    switch (rng.UniformInt(0, 3)) {
      case 0:  // truncate
        sql.resize(static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(sql.size()))));
        break;
      case 1: {  // flip one character
        if (!sql.empty()) {
          sql[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(sql.size()) - 1))] =
              static_cast<char>(rng.UniformInt(32, 126));
        }
        break;
      }
      case 2:  // duplicate a slice
        sql += sql.substr(sql.size() / 2);
        break;
      case 3:  // splice two different templates
        sql = sql.substr(0, sql.size() / 2) +
              templates[(iter + 7) % templates.size()].instantiate(inst);
        break;
    }
    const auto result = Parse(sql);
    (result.ok() ? parsed_ok : rejected) += 1;
  }
  // Both outcomes must occur: mutations that stay valid and ones that don't.
  EXPECT_GT(parsed_ok, 0u);
  EXPECT_GT(rejected, 0u);
}

// Seeded mutation corpus: byte flips and token splices over every shipped
// workload template. Two contracts beyond "never crash": every parse error
// carries a byte position ("at offset N"), and that position lies inside
// the input (an error pointing past the text is as useless as none).
size_t ExtractOffset(const std::string& message) {
  const size_t at = message.find("offset ");
  EXPECT_NE(at, std::string::npos) << "error without a position: " << message;
  if (at == std::string::npos) return 0;
  return static_cast<size_t>(
      std::strtoull(message.c_str() + at + 7, nullptr, 10));
}

TEST(ParserFuzzTest, ByteFlipCorpusErrorsCarryInBoundsPositions) {
  const auto templates = workload::TpcdsTemplates();
  Rng rng(0xB17F11Bull);
  size_t rejected = 0;
  for (int iter = 0; iter < 1200; ++iter) {
    const auto& tmpl = templates[iter % templates.size()];
    Rng inst(rng.NextU64());
    std::string sql = tmpl.instantiate(inst);
    // Flip 1..4 bytes to arbitrary values (not just printable ones).
    const int flips = static_cast<int>(rng.UniformInt(1, 4));
    for (int f = 0; f < flips && !sql.empty(); ++f) {
      sql[static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(sql.size()) - 1))] =
          static_cast<char>(rng.UniformInt(1, 255));
    }
    const auto result = Parse(sql);
    if (result.ok()) continue;
    ++rejected;
    const std::string& message = result.status().message();
    EXPECT_LE(ExtractOffset(message), sql.size()) << message << "\n" << sql;
  }
  EXPECT_GT(rejected, 0u);
}

TEST(ParserFuzzTest, TokenSpliceCorpusErrorsCarryInBoundsPositions) {
  const auto templates = workload::TpcdsTemplates();
  Rng rng(0x5B11CEull);
  size_t parsed_ok = 0, rejected = 0;
  for (int iter = 0; iter < 1200; ++iter) {
    Rng inst(rng.NextU64());
    const std::string a =
        templates[iter % templates.size()].instantiate(inst);
    const std::string b =
        templates[(iter + 3) % templates.size()].instantiate(inst);
    // Splice at whitespace boundaries so the corpus stays token-shaped —
    // this reaches deeper parser states than byte soup, which mostly dies
    // in the lexer.
    const auto ta = Split(a, ' ');
    const auto tb = Split(b, ' ');
    std::vector<std::string> spliced;
    const size_t cut_a = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(ta.size())));
    const size_t cut_b = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(tb.size())));
    spliced.insert(spliced.end(), ta.begin(), ta.begin() + cut_a);
    spliced.insert(spliced.end(), tb.begin() + cut_b, tb.end());
    if (rng.NextDouble() < 0.3 && !ta.empty()) {  // duplicate a token run
      const size_t dup = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(ta.size()) - 1));
      spliced.insert(spliced.end(), ta.begin() + dup, ta.end());
    }
    const std::string sql = Join(spliced, " ");
    const auto result = Parse(sql);
    if (result.ok()) {
      ++parsed_ok;
      continue;
    }
    ++rejected;
    const std::string& message = result.status().message();
    EXPECT_LE(ExtractOffset(message), sql.size()) << message << "\n" << sql;
  }
  // The splice point must produce both survivors and rejects, or the
  // corpus is not exploring the grammar.
  EXPECT_GT(parsed_ok, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace qpp::sql
