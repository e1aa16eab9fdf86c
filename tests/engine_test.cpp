// Tests for engine/: metrics vectorization, system configs, and the
// execution simulator's behavioral properties.
#include <gtest/gtest.h>

#include "catalog/tpcds.h"
#include "common/str_util.h"
#include "engine/metrics.h"
#include "engine/simulator.h"
#include "engine/system_config.h"
#include "optimizer/optimizer.h"

namespace qpp::engine {
namespace {

TEST(MetricsTest, VectorRoundTrip) {
  QueryMetrics m;
  m.elapsed_seconds = 12.5;
  m.records_accessed = 1e6;
  m.records_used = 5e5;
  m.disk_ios = 42;
  m.message_count = 100;
  m.message_bytes = 1e7;
  const QueryMetrics back = QueryMetrics::FromVector(m.ToVector());
  EXPECT_EQ(back.elapsed_seconds, m.elapsed_seconds);
  EXPECT_EQ(back.records_accessed, m.records_accessed);
  EXPECT_EQ(back.records_used, m.records_used);
  EXPECT_EQ(back.disk_ios, m.disk_ios);
  EXPECT_EQ(back.message_count, m.message_count);
  EXPECT_EQ(back.message_bytes, m.message_bytes);
}

TEST(MetricsTest, PaperMetricOrder) {
  const auto names = QueryMetrics::MetricNames();
  EXPECT_EQ(names[0], "elapsed_time");
  EXPECT_EQ(names[1], "records_accessed");
  EXPECT_EQ(names[2], "records_used");
  EXPECT_EQ(names[3], "disk_io");
  EXPECT_EQ(names[4], "message_count");
  EXPECT_EQ(names[5], "message_bytes");
}

TEST(SystemConfigTest, Presets) {
  const SystemConfig r = SystemConfig::Neoview4();
  EXPECT_EQ(r.total_nodes, 4);
  EXPECT_EQ(r.nodes_used, 4);
  const SystemConfig p8 = SystemConfig::Neoview32(8);
  EXPECT_EQ(p8.total_nodes, 32);
  EXPECT_EQ(p8.nodes_used, 8);
  EXPECT_NE(r.Fingerprint(), p8.Fingerprint());
  EXPECT_NE(SystemConfig::Neoview32(4).Fingerprint(), p8.Fingerprint());
}

TEST(SystemConfigTest, CacheRuleMatchesPaperStory) {
  // Research 4-node: TPC-DS SF-1 tables are all cached.
  const catalog::Catalog cat = catalog::MakeTpcdsCatalog(1.0);
  const SystemConfig research = SystemConfig::Neoview4();
  for (const auto& t : cat.tables()) {
    EXPECT_TRUE(research.TableCached(t.row_count * t.RowWidthBytes()))
        << t.name;
  }
  // 4-of-32: the big fact tables no longer fit (the paper's Fig. 16
  // explanation for non-null disk I/O on that configuration)...
  const SystemConfig prod4 = SystemConfig::Neoview32(4);
  const auto& ss = *cat.FindTable("store_sales");
  EXPECT_FALSE(prod4.TableCached(ss.row_count * ss.RowWidthBytes()));
  // ...while 8+ nodes cache everything again.
  const SystemConfig prod8 = SystemConfig::Neoview32(8);
  for (const auto& t : cat.tables()) {
    EXPECT_TRUE(prod8.TableCached(t.row_count * t.RowWidthBytes()))
        << t.name;
  }
}

class SimulatorTest : public ::testing::Test {
 protected:
  SimulatorTest() : catalog_(catalog::MakeTpcdsCatalog(1.0)) {}

  optimizer::PhysicalPlan Plan(const std::string& sql, int nodes = 4) {
    optimizer::OptimizerOptions opts;
    opts.nodes_used = nodes;
    optimizer::Optimizer opt(&catalog_, opts);
    auto plan = opt.Plan(sql);
    EXPECT_TRUE(plan.ok()) << plan.status().message();
    return std::move(plan).value();
  }

  QueryMetrics Run(const std::string& sql, const SystemConfig& config) {
    const ExecutionSimulator sim(&catalog_, config);
    return sim.Execute(Plan(sql, config.nodes_used));
  }

  catalog::Catalog catalog_;
};

TEST_F(SimulatorTest, DeterministicForSameQueryAndConfig) {
  const std::string sql =
      "SELECT COUNT(*) FROM store_sales WHERE ss_quantity > 50";
  const QueryMetrics a = Run(sql, SystemConfig::Neoview4());
  const QueryMetrics b = Run(sql, SystemConfig::Neoview4());
  EXPECT_EQ(a.elapsed_seconds, b.elapsed_seconds);
  EXPECT_EQ(a.ToVector(), b.ToVector());
}

TEST_F(SimulatorTest, DifferentQueriesDiffer) {
  const QueryMetrics a =
      Run("SELECT COUNT(*) FROM store_sales WHERE ss_quantity > 50",
          SystemConfig::Neoview4());
  const QueryMetrics b =
      Run("SELECT COUNT(*) FROM store_sales WHERE ss_quantity > 51",
          SystemConfig::Neoview4());
  EXPECT_NE(a.elapsed_seconds, b.elapsed_seconds);
}

TEST_F(SimulatorTest, AllMetricsNonNegative) {
  const QueryMetrics m = Run(
      "SELECT d_year, COUNT(*) FROM store_sales, date_dim "
      "WHERE ss_sold_date_sk = d_date_sk GROUP BY d_year ORDER BY d_year",
      SystemConfig::Neoview4());
  for (double v : m.ToVector()) EXPECT_GE(v, 0.0);
  EXPECT_GT(m.elapsed_seconds, 0.0);
  EXPECT_GT(m.records_accessed, 0.0);
}

TEST_F(SimulatorTest, RecordsMetricsComeFromScans) {
  const QueryMetrics m =
      Run("SELECT COUNT(*) FROM item WHERE i_category_id = 5",
          SystemConfig::Neoview4());
  EXPECT_EQ(m.records_accessed, 18000.0);
  EXPECT_LT(m.records_used, m.records_accessed);
}

TEST_F(SimulatorTest, ElapsedMonotoneInDateWindowWidth) {
  // Wider window -> more qualifying rows -> more downstream work. The scan
  // itself is constant, so compare a join-heavy query.
  double prev = 0.0;
  for (int width : {10, 100, 400, 1600}) {
    const std::string sql = StrFormat(
        "SELECT COUNT(*) FROM store_sales, store_returns "
        "WHERE ss_sold_date_sk BETWEEN 2451000 AND %d "
        "AND ss_ext_sales_price > sr_return_amt",
        2451000 + width);
    const QueryMetrics m = Run(sql, SystemConfig::Neoview4());
    EXPECT_GT(m.elapsed_seconds, prev) << "width " << width;
    prev = m.elapsed_seconds;
  }
}

TEST_F(SimulatorTest, MoreNodesRunFaster) {
  const std::string sql =
      "SELECT COUNT(*) FROM store_sales, catalog_sales "
      "WHERE ss_list_price < cs_list_price";  // NLJ: CPU-bound
  const QueryMetrics m4 = Run(sql, SystemConfig::Neoview32(4));
  const QueryMetrics m32 = Run(sql, SystemConfig::Neoview32(32));
  EXPECT_LT(m32.elapsed_seconds, m4.elapsed_seconds);
  // Roughly linear scaling for a CPU-bound query (allow wide tolerance).
  EXPECT_GT(m4.elapsed_seconds / m32.elapsed_seconds, 3.0);
}

TEST_F(SimulatorTest, FourOfThirtyTwoNodesIncursDiskIo) {
  const std::string sql =
      "SELECT COUNT(*) FROM store_sales WHERE ss_quantity > 10";
  const QueryMetrics starved = Run(sql, SystemConfig::Neoview32(4));
  const QueryMetrics roomy = Run(sql, SystemConfig::Neoview32(32));
  EXPECT_GT(starved.disk_ios, 0.0);   // store_sales not cached
  EXPECT_EQ(roomy.disk_ios, 0.0);     // everything cached
}

TEST_F(SimulatorTest, MessagesFlowThroughExchanges) {
  // A repartitioning hash join must ship rows; a single-table scalar
  // aggregate ships almost nothing.
  const QueryMetrics join = Run(
      "SELECT COUNT(*) FROM store_sales, customer "
      "WHERE ss_customer_sk = c_customer_sk",
      SystemConfig::Neoview4());
  const QueryMetrics scan =
      Run("SELECT COUNT(*) FROM customer", SystemConfig::Neoview4());
  EXPECT_GT(join.message_bytes, 100.0 * scan.message_bytes);
  EXPECT_GT(join.message_count, scan.message_count);
}

TEST_F(SimulatorTest, OsUpgradeShiftsJoinPerformance) {
  // The paper's anecdote: bowling balls run after an OS upgrade were
  // noticeably different. os_version=2 perturbs join costs.
  SystemConfig v1 = SystemConfig::Neoview4();
  SystemConfig v2 = v1;
  v2.os_version = 2;
  const std::string sql =
      "SELECT COUNT(*) FROM store_sales, catalog_sales "
      "WHERE ss_list_price < cs_list_price";
  const QueryMetrics m1 = Run(sql, v1);
  const QueryMetrics m2 = Run(sql, v2);
  EXPECT_GT(m2.elapsed_seconds, m1.elapsed_seconds * 1.05);
}

TEST_F(SimulatorTest, SpillProducesDiskIoOnResearchSystem) {
  // Broadcasting a full store_sales projection (~190 MB) as the nested-loop
  // inner exceeds the ~100 MB per-node working memory and must spill.
  const QueryMetrics m = Run(
      "SELECT COUNT(*) FROM store_sales a, store_sales b "
      "WHERE a.ss_net_paid > b.ss_net_paid",
      SystemConfig::Neoview4());
  EXPECT_GT(m.disk_ios, 0.0);
}

TEST_F(SimulatorTest, ToStringMentionsDuration) {
  QueryMetrics m;
  m.elapsed_seconds = 3661.0;
  EXPECT_NE(m.ToString().find("01:01:01"), std::string::npos);
}

}  // namespace
}  // namespace qpp::engine
