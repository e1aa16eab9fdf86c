// Tests for the SQL front end: lexer, parser (incl. round-trip properties),
// and the paper's 9-dimension SQL-text feature extractor.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "sql/ast.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/sql_features.h"
#include "workload/problem_templates.h"
#include "workload/retailbank_templates.h"
#include "workload/tpcds_templates.h"

namespace qpp::sql {
namespace {

TEST(LexerTest, BasicTokens) {
  const auto tokens = Lex("SELECT a.b, 42, 3.5, 'x''y' FROM t;").value();
  ASSERT_GE(tokens.size(), 12u);
  EXPECT_TRUE(tokens[0].IsKeyword("SELECT"));
  EXPECT_EQ(tokens[1].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens[1].text, "a");
  EXPECT_TRUE(tokens[2].IsSymbol("."));
  EXPECT_EQ(tokens[5].type, TokenType::kInteger);
  EXPECT_EQ(tokens[5].number, 42.0);
  EXPECT_EQ(tokens[7].type, TokenType::kNumber);
  EXPECT_EQ(tokens[7].number, 3.5);
  EXPECT_EQ(tokens[9].type, TokenType::kString);
  EXPECT_EQ(tokens[9].text, "x'y");
  EXPECT_EQ(tokens.back().type, TokenType::kEnd);
}

TEST(LexerTest, OperatorsNormalized) {
  const auto tokens = Lex("a <> b != c <= d >= e").value();
  EXPECT_TRUE(tokens[1].IsSymbol("<>"));
  EXPECT_TRUE(tokens[3].IsSymbol("<>"));  // != normalized
  EXPECT_TRUE(tokens[5].IsSymbol("<="));
  EXPECT_TRUE(tokens[7].IsSymbol(">="));
}

TEST(LexerTest, CommentsSkipped) {
  const auto tokens = Lex("SELECT -- comment here\n 1").value();
  EXPECT_TRUE(tokens[0].IsKeyword("SELECT"));
  EXPECT_EQ(tokens[1].type, TokenType::kInteger);
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Lex("SELECT 'oops").ok());
}

TEST(LexerTest, UnknownCharacterFails) {
  EXPECT_FALSE(Lex("SELECT @x").ok());
}

TEST(LexerTest, KeywordsCaseInsensitive) {
  const auto tokens = Lex("select FROM Where").value();
  EXPECT_TRUE(tokens[0].IsKeyword("SELECT"));
  EXPECT_TRUE(tokens[1].IsKeyword("FROM"));
  EXPECT_TRUE(tokens[2].IsKeyword("WHERE"));
}

TEST(ParserTest, SimpleSelect) {
  const auto stmt = Parse("SELECT a, b FROM t WHERE a = 1").value();
  EXPECT_EQ(stmt->items.size(), 2u);
  EXPECT_EQ(stmt->from.size(), 1u);
  EXPECT_EQ(stmt->from[0].table, "t");
  ASSERT_NE(stmt->where, nullptr);
  EXPECT_EQ(stmt->where->kind, ExprKind::kCompare);
}

TEST(ParserTest, JoinOnFoldsIntoWhere) {
  const auto stmt =
      Parse("SELECT * FROM a JOIN b ON a.x = b.y WHERE a.z > 3").value();
  EXPECT_EQ(stmt->from.size(), 2u);
  ASSERT_NE(stmt->where, nullptr);
  const auto conjuncts = SplitConjuncts(*stmt->where);
  EXPECT_EQ(conjuncts.size(), 2u);
}

TEST(ParserTest, FullClauseSet) {
  const auto stmt = Parse(
      "SELECT a, SUM(b) AS total FROM t1, t2 "
      "WHERE t1.k = t2.k AND b BETWEEN 1 AND 10 AND c IN (1, 2, 3) "
      "GROUP BY a HAVING SUM(b) > 5 ORDER BY a DESC LIMIT 7").value();
  EXPECT_EQ(stmt->items.size(), 2u);
  EXPECT_EQ(stmt->items[1].alias, "total");
  EXPECT_EQ(stmt->group_by.size(), 1u);
  ASSERT_NE(stmt->having, nullptr);
  ASSERT_EQ(stmt->order_by.size(), 1u);
  EXPECT_FALSE(stmt->order_by[0].ascending);
  EXPECT_EQ(stmt->limit, 7);
}

TEST(ParserTest, Subqueries) {
  const auto stmt = Parse(
      "SELECT COUNT(*) FROM customer WHERE c_id IN "
      "(SELECT o_cid FROM orders WHERE o_total > 100) "
      "AND EXISTS (SELECT r_id FROM returns WHERE r_cid = c_id)").value();
  const auto conjuncts = SplitConjuncts(*stmt->where);
  ASSERT_EQ(conjuncts.size(), 2u);
  EXPECT_EQ(conjuncts[0]->kind, ExprKind::kInSubquery);
  EXPECT_EQ(conjuncts[1]->kind, ExprKind::kExists);
  ASSERT_NE(conjuncts[0]->subquery, nullptr);
  EXPECT_EQ(conjuncts[0]->subquery->from[0].table, "orders");
}

TEST(ParserTest, NotInAndNotExists) {
  const auto stmt = Parse(
      "SELECT * FROM t WHERE a NOT IN (SELECT b FROM u) "
      "AND NOT EXISTS (SELECT c FROM v WHERE v.c = t.a)").value();
  const auto conjuncts = SplitConjuncts(*stmt->where);
  ASSERT_EQ(conjuncts.size(), 2u);
  EXPECT_TRUE(conjuncts[0]->negated);
  EXPECT_TRUE(conjuncts[1]->negated);
}

TEST(ParserTest, ArithmeticPrecedence) {
  const auto stmt = Parse("SELECT a FROM t WHERE a > 1 + 2 * 3").value();
  // Right side should evaluate as 1 + (2*3); check the tree shape.
  const Expr& cmp = *stmt->where;
  ASSERT_EQ(cmp.kind, ExprKind::kCompare);
  ASSERT_EQ(cmp.right->kind, ExprKind::kArith);
  EXPECT_EQ(cmp.right->arith, ArithOp::kAdd);
  EXPECT_EQ(cmp.right->right->kind, ExprKind::kArith);
  EXPECT_EQ(cmp.right->right->arith, ArithOp::kMul);
}

TEST(ParserTest, NegativeNumbers) {
  const auto stmt = Parse("SELECT a FROM t WHERE a > -5").value();
  EXPECT_EQ(stmt->where->right->num, -5.0);
}

TEST(ParserTest, ErrorsAreReported) {
  EXPECT_FALSE(Parse("SELECT FROM t").ok());
  EXPECT_FALSE(Parse("SELECT a").ok());
  EXPECT_FALSE(Parse("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(Parse("SELECT a FROM t LIMIT x").ok());
  EXPECT_FALSE(Parse("SELECT a FROM t extra garbage ,").ok());
  EXPECT_FALSE(Parse("").ok());
}

TEST(ParserTest, InListRequiresLiterals) {
  EXPECT_FALSE(Parse("SELECT a FROM t WHERE a IN (b, c)").ok());
}

TEST(ParserTest, RoundTripIsStable) {
  const char* queries[] = {
      "SELECT a, b FROM t WHERE a = 1",
      "SELECT COUNT(*) FROM t1, t2 WHERE t1.a = t2.b AND t1.c > 5.5",
      "SELECT a, SUM(b) FROM t GROUP BY a ORDER BY a LIMIT 3",
      "SELECT DISTINCT x FROM t WHERE y IN (1, 2) OR z BETWEEN 3 AND 9",
  };
  for (const char* q : queries) {
    const auto s1 = Parse(q).value();
    const std::string text1 = s1->ToString();
    const auto s2 = Parse(text1).value();
    EXPECT_EQ(text1, s2->ToString()) << q;
  }
}

// Property: every workload template instantiation parses, and unparse ->
// reparse -> unparse is a fixed point.
class TemplateRoundTripTest
    : public ::testing::TestWithParam<workload::QueryTemplate> {};

TEST_P(TemplateRoundTripTest, ParsesAndRoundTrips) {
  const workload::QueryTemplate& tmpl = GetParam();
  Rng rng(HashString64(tmpl.name));
  for (int i = 0; i < 12; ++i) {
    const std::string sql = tmpl.instantiate(rng);
    const auto parsed = Parse(sql);
    ASSERT_TRUE(parsed.ok()) << tmpl.name << ": " << parsed.status().message()
                             << "\n" << sql;
    const std::string text1 = parsed.value()->ToString();
    const auto reparsed = Parse(text1);
    ASSERT_TRUE(reparsed.ok()) << tmpl.name << "\n" << text1;
    EXPECT_EQ(text1, reparsed.value()->ToString()) << tmpl.name;
  }
}

std::vector<workload::QueryTemplate> AllTemplates() {
  std::vector<workload::QueryTemplate> all = workload::TpcdsTemplates();
  for (auto& t : workload::ProblemTemplates()) all.push_back(t);
  for (auto& t : workload::RetailBankTemplates()) all.push_back(t);
  return all;
}

INSTANTIATE_TEST_SUITE_P(
    AllTemplates, TemplateRoundTripTest, ::testing::ValuesIn(AllTemplates()),
    [](const ::testing::TestParamInfo<workload::QueryTemplate>& info) {
      return info.param.name;
    });

TEST(SqlFeaturesTest, CountsMatchHandQuery) {
  const auto stmt = Parse(
      "SELECT a, SUM(b), COUNT(*) FROM t1, t2 "
      "WHERE t1.k = t2.k AND t1.x = 5 AND t2.y > 3 AND t1.z <> t2.w "
      "GROUP BY a ORDER BY a, b").value();
  const SqlFeatures f = ExtractSqlFeatures(*stmt);
  EXPECT_EQ(f.nested_subqueries, 0);
  EXPECT_EQ(f.selection_predicates, 2);   // x = 5, y > 3
  EXPECT_EQ(f.equality_selections, 1);
  EXPECT_EQ(f.nonequality_selections, 1);
  EXPECT_EQ(f.join_predicates, 2);        // k = k, z <> w
  EXPECT_EQ(f.equijoin_predicates, 1);
  EXPECT_EQ(f.nonequijoin_predicates, 1);
  EXPECT_EQ(f.sort_columns, 2);
  EXPECT_EQ(f.aggregation_columns, 2);
}

TEST(SqlFeaturesTest, SubqueriesCounted) {
  const auto stmt = Parse(
      "SELECT COUNT(*) FROM c WHERE id IN "
      "(SELECT cid FROM o WHERE total > 10 AND cid IN "
      "(SELECT x FROM p))").value();
  const SqlFeatures f = ExtractSqlFeatures(*stmt);
  EXPECT_EQ(f.nested_subqueries, 2);
  EXPECT_EQ(f.selection_predicates, 1);  // total > 10
  EXPECT_EQ(f.equijoin_predicates, 2);   // both IN memberships
}

TEST(SqlFeaturesTest, SameTemplateDifferentConstantsSameFeatures) {
  // The paper's core criticism of SQL-text features: constants are
  // invisible, so two instantiations of one template look identical.
  const auto tmpl = workload::ProblemTemplates()[0];
  Rng r1(1), r2(2);
  const auto s1 = Parse(tmpl.instantiate(r1)).value();
  const auto s2 = Parse(tmpl.instantiate(r2)).value();
  EXPECT_EQ(ExtractSqlFeatures(*s1).ToVector(),
            ExtractSqlFeatures(*s2).ToVector());
}

TEST(AstTest, CloneIsDeep) {
  const auto stmt = Parse("SELECT a FROM t WHERE a = 1 AND b < 2").value();
  Expr clone = stmt->where->Clone();
  EXPECT_EQ(clone.ToString(), stmt->where->ToString());
  clone.left->cmp = CompareOp::kNe;
  EXPECT_NE(clone.ToString(), stmt->where->ToString());
}

TEST(AstTest, SplitConjunctsStopsAtOr) {
  const auto stmt =
      Parse("SELECT a FROM t WHERE (a = 1 OR b = 2) AND c = 3").value();
  const auto conjuncts = SplitConjuncts(*stmt->where);
  ASSERT_EQ(conjuncts.size(), 2u);
  EXPECT_EQ(conjuncts[0]->kind, ExprKind::kLogical);
  EXPECT_FALSE(conjuncts[0]->is_and);
}

}  // namespace
}  // namespace qpp::sql
