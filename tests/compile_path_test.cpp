// The SQL compile path, pinned bit for bit: every template of the TPC-DS,
// problem and retailbank sets, a few instances each at a fixed seed, plus a
// handful of hand-written texts that reach the lexer's and binder's corners,
// go through Parse -> BuildLogicalPlan -> Optimizer::Plan -> Execute ->
// PlanFeatureVector. One FNV-1a digest covers the unparsed statement, every
// semantic key, the plan rendering, the optimizer cost, the query hash and
// every feature and metric bit. The semantic keys seed the hidden truth, so
// a single changed key byte moves true cardinalities and every simulated
// metric; the golden suite compares within tolerances and cannot see that.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/retailbank.h"
#include "catalog/tpcds.h"
#include "engine/simulator.h"
#include "ml/feature_vector.h"
#include "optimizer/logical_plan.h"
#include "optimizer/optimizer.h"
#include "sql/parser.h"
#include "workload/generator.h"
#include "workload/problem_templates.h"
#include "workload/retailbank_templates.h"
#include "workload/tpcds_templates.h"

namespace qpp {
namespace {

/// FNV-1a over every byte added, each string closed by a 0 byte so that
/// adjacent strings cannot trade characters.
class Digest {
 public:
  void Add(std::string_view bytes) {
    for (const char c : bytes) Byte(static_cast<unsigned char>(c));
    Byte(0);
  }
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void Add(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    Add(bits);
  }
  uint64_t value() const { return h_; }

 private:
  void Byte(unsigned char c) {
    h_ ^= c;
    h_ *= 0x100000001B3ull;
  }
  uint64_t h_ = 0xCBF29CE484222325ull;
};

void AddKeys(const optimizer::LogicalPlan& plan, Digest* d) {
  for (const optimizer::LogicalRelation& rel : plan.relations) {
    d->Add(rel.table);
    d->Add(rel.alias);
    for (const optimizer::BoundSelection& sel : rel.selections) {
      d->Add(sel.column);
      d->Add(sel.semantic_key);
    }
    if (rel.IsDerived()) AddKeys(*rel.derived, d);
  }
  for (const optimizer::BoundJoin& join : plan.joins) {
    d->Add(join.left_column);
    d->Add(join.right_column);
    d->Add(join.semantic_key);
  }
}

/// Compiles and runs one text, folding everything the compile path decides
/// into `d`. Returns false (with a test failure) when any stage fails.
bool AddQuery(const std::string& sql, const catalog::Catalog& catalog,
              const optimizer::Optimizer& opt,
              const engine::ExecutionSimulator& sim, Digest* d) {
  auto stmt = sql::Parse(sql);
  if (!stmt.ok()) {
    ADD_FAILURE() << stmt.status().message() << "\n" << sql;
    return false;
  }
  d->Add(stmt.value()->ToString());
  auto logical = optimizer::BuildLogicalPlan(*stmt.value(), catalog);
  if (!logical.ok()) {
    ADD_FAILURE() << logical.status().message() << "\n" << sql;
    return false;
  }
  AddKeys(logical.value(), d);
  auto plan = opt.Plan(*stmt.value(), sql);
  if (!plan.ok()) {
    ADD_FAILURE() << plan.status().message() << "\n" << sql;
    return false;
  }
  d->Add(plan.value().ToString());
  d->Add(plan.value().optimizer_cost);
  d->Add(plan.value().query_hash);
  const engine::QueryMetrics m = sim.Execute(plan.value());
  for (const double v :
       {m.elapsed_seconds, m.records_accessed, m.records_used, m.disk_ios,
        m.message_count, m.message_bytes, m.cpu_seconds,
        m.peak_memory_bytes}) {
    d->Add(v);
  }
  for (const double v : ml::PlanFeatureVector(plan.value())) d->Add(v);
  return true;
}

/// Texts that reach what the templates may not: mixed-case keywords and
/// names, comments, exponents, escaped quotes, `!=`, JOIN..ON, NOT, OR
/// across relations, IN and EXISTS subqueries, arithmetic and LIMIT.
const char* const kHandWritten[] = {
    "select I_Brand, Count(*) From Item -- trailing comment\n"
    "Where I_Category_Id = 3 And i_current_price >= 1.5e1 "
    "Group By I_Brand Order By 2 Desc Limit 10;",
    "SELECT ss_ticket_number FROM store_sales ss JOIN item i "
    "ON ss.ss_item_sk = i.i_item_sk WHERE i.i_category = 'Men''s' "
    "AND ss.ss_quantity != 7 AND NOT (ss.ss_list_price < .5)",
    "SELECT c_birth_country FROM customer c WHERE c.c_customer_sk IN "
    "(SELECT ss_customer_sk FROM store_sales WHERE ss_quantity > 90) "
    "AND EXISTS (SELECT * FROM store_returns sr "
    "WHERE sr.sr_customer_sk = c.c_customer_sk AND sr_return_quantity > 2)",
    "SELECT d_year, SUM(ss_ext_sales_price - ss_ext_discount_amt * 2) "
    "FROM store_sales, date_dim WHERE ss_sold_date_sk = d_date_sk "
    "AND (d_moy = 11 OR ss_quantity BETWEEN 10 AND 20) "
    "AND ss_item_sk IN (1, 2, -3) GROUP BY d_year HAVING COUNT(*) > 5",
    "SELECT DISTINCT i_brand_id FROM item WHERE i_item_sk NOT IN "
    "(SELECT cs_item_sk FROM catalog_sales WHERE cs_quantity < 3.25) "
    "ORDER BY i_brand_id LIMIT 5",
    "SELECT w_state, AVG(inv_quantity_on_hand) FROM inventory, "
    "warehouse, date_dim WHERE inv_warehouse_sk = w_warehouse_sk AND "
    "inv_date_sk = d_date_sk AND (w_warehouse_sq_ft > 50000 OR d_year = "
    "2000) GROUP BY w_state",
};

constexpr size_t kInstancesPerTemplate = 4;
constexpr uint64_t kSeed = 42;

/// The digest the compile path produced before its single-pass rewrite.
constexpr uint64_t kPinnedDigest = 0x7cf22eaec879d3e9ull;

TEST(CompilePathTest, EveryTemplateCompilesToThePinnedBits) {
  Digest d;
  size_t compiled = 0;
  {
    const catalog::Catalog catalog = catalog::MakeTpcdsCatalog(1.0);
    const optimizer::Optimizer opt(&catalog);
    const engine::ExecutionSimulator sim(&catalog,
                                         engine::SystemConfig::Neoview4());
    for (const auto& templates :
         {workload::TpcdsTemplates(), workload::ProblemTemplates()}) {
      for (const workload::GeneratedQuery& q : workload::GenerateWorkload(
               templates, templates.size() * kInstancesPerTemplate, kSeed)) {
        compiled += AddQuery(q.sql, catalog, opt, sim, &d);
      }
    }
    for (const char* sql : kHandWritten) {
      compiled += AddQuery(sql, catalog, opt, sim, &d);
    }
  }
  {
    const catalog::Catalog catalog = catalog::MakeRetailBankCatalog();
    const optimizer::Optimizer opt(&catalog);
    const engine::ExecutionSimulator sim(&catalog,
                                         engine::SystemConfig::Neoview4());
    const std::vector<workload::QueryTemplate> templates =
        workload::RetailBankTemplates();
    for (const workload::GeneratedQuery& q : workload::GenerateWorkload(
             templates, templates.size() * kInstancesPerTemplate, kSeed)) {
      compiled += AddQuery(q.sql, catalog, opt, sim, &d);
    }
  }
  EXPECT_GT(compiled, 100u);
  EXPECT_EQ(d.value(), kPinnedDigest)
      << "compile-path digest 0x" << std::hex << d.value();
}

// --- input bounds ---------------------------------------------------------
//
// The parser refuses expressions deeper than sql::kMaxExprDepth, because the
// parser and every later walk recurse through them (see parser.h for how
// levels count). Each shape below is planned, executed and featurized at the
// bound, refused one level past it, and refused (not crashed) at the sizes
// that overflowed the stack before the bound existed.

class CompileBoundTest : public ::testing::Test {
 protected:
  CompileBoundTest()
      : catalog_(catalog::MakeTpcdsCatalog(1.0)),
        opt_(&catalog_),
        sim_(&catalog_, engine::SystemConfig::Neoview4()) {}

  /// Parses, plans, runs and featurizes `sql`; every node's cardinalities
  /// must be finite and non-negative.
  void ExpectCompiles(const std::string& sql) {
    auto plan = opt_.Plan(sql);
    ASSERT_TRUE(plan.ok()) << plan.status().message();
    plan.value().Visit([](const optimizer::PhysicalNode& node) {
      EXPECT_TRUE(std::isfinite(node.est_rows) && node.est_rows >= 0.0);
      EXPECT_TRUE(std::isfinite(node.true_rows) && node.true_rows >= 0.0);
    });
    EXPECT_GT(sim_.Execute(plan.value()).elapsed_seconds, 0.0);
    EXPECT_FALSE(ml::PlanFeatureVector(plan.value()).empty());
  }

  static void ExpectTooDeep(const std::string& sql) {
    auto stmt = sql::Parse(sql);
    ASSERT_FALSE(stmt.ok());
    EXPECT_NE(stmt.status().message().find("kMaxExprDepth"),
              std::string::npos)
        << stmt.status().message();
  }

  static std::string Repeat(const std::string& s, int n) {
    std::string out;
    out.reserve(s.size() * static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) out += s;
    return out;
  }

  catalog::Catalog catalog_;
  optimizer::Optimizer opt_;
  engine::ExecutionSimulator sim_;
};

constexpr int kMax = sql::kMaxExprDepth;
const std::string kScan = "SELECT ss_quantity FROM store_sales WHERE ";

TEST_F(CompileBoundTest, ParenthesesNestToTheBound) {
  // n parentheses around a comparison: n descent levels.
  const auto sql = [](int n) {
    return kScan + Repeat("(", n) + "ss_quantity < 5" + Repeat(")", n);
  };
  ExpectCompiles(sql(kMax));
  ExpectTooDeep(sql(kMax + 1));
  ExpectTooDeep(sql(30000));
}

TEST_F(CompileBoundTest, NotChainsNestToTheBound) {
  // k NOTs above a comparison: k + 1 levels.
  const auto sql = [](int k) {
    return kScan + Repeat("NOT ", k) + "ss_quantity < 5";
  };
  ExpectCompiles(sql(kMax - 1));
  ExpectTooDeep(sql(kMax));
  ExpectTooDeep(sql(30000));
}

TEST_F(CompileBoundTest, AndChainsNestToTheBound) {
  // n comparisons joined by AND: n levels, one AND above another.
  const auto sql = [](int n) {
    return kScan + "ss_quantity < 5" + Repeat(" AND ss_quantity < 5", n - 1);
  };
  ExpectCompiles(sql(kMax));
  ExpectTooDeep(sql(kMax + 1));
  ExpectTooDeep(sql(50000));
}

TEST_F(CompileBoundTest, PlusChainsNestToTheBound) {
  // A comparison against m `+ 1` terms: m + 1 levels.
  const auto sql = [](int m) {
    return kScan + "ss_quantity < 0" + Repeat(" + 1", m);
  };
  ExpectCompiles(sql(kMax - 1));
  ExpectTooDeep(sql(kMax));
  ExpectTooDeep(sql(100000));
}

TEST_F(CompileBoundTest, SubqueriesNestToTheBound) {
  // n nested IN subqueries: n levels of the tree and of the descent.
  const auto sql = [](int n) {
    return kScan + "ss_item_sk IN (" +
           Repeat("SELECT i_item_sk FROM item WHERE i_item_sk IN (", n - 1) +
           "SELECT i_item_sk FROM item" + Repeat(")", n);
  };
  ExpectCompiles(sql(kMax));
  ExpectTooDeep(sql(kMax + 1));
  ExpectTooDeep(sql(30000));
}

TEST_F(CompileBoundTest, LimitReadsTheWholeInt64Range) {
  const std::string top = kScan + "ss_quantity < 5 ORDER BY ss_quantity LIMIT ";
  auto stmt = sql::Parse(top + "9223372036854775807");
  ASSERT_TRUE(stmt.ok()) << stmt.status().message();
  EXPECT_EQ(stmt.value()->limit, INT64_MAX);
  ExpectCompiles(top + "9223372036854775807");
  ExpectCompiles(kScan + "ss_quantity < 5 LIMIT 9223372036854775807");
  for (const char* beyond :
       {"9223372036854775808", "99999999999999999999999"}) {
    auto refused = sql::Parse(top + beyond);
    ASSERT_FALSE(refused.ok()) << beyond;
    EXPECT_NE(refused.status().message().find("LIMIT out of range"),
              std::string::npos)
        << refused.status().message();
  }
}

TEST_F(CompileBoundTest, IntegerLiteralsBeyondInt64RenderTheirValue) {
  // The semantic key renders an integer literal through long long, which
  // cannot hold this one; it renders the double's exact integer value.
  auto stmt = sql::Parse(kScan + "ss_quantity = 99999999999999999999");
  ASSERT_TRUE(stmt.ok()) << stmt.status().message();
  EXPECT_EQ(stmt.value()->where->ToString(),
            "ss_quantity = 100000000000000000000");
  ExpectCompiles(kScan + "ss_quantity = -99999999999999999999");
}

}  // namespace
}  // namespace qpp
