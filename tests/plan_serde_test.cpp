// Tests for physical-plan serialization: round trips across all template
// shapes, corrupt/truncated input handling, and feature-vector equivalence
// of reloaded plans (the Fig. 1 interchange contract).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "catalog/tpcds.h"
#include "common/rng.h"
#include "common/serde.h"
#include "engine/simulator.h"
#include "ml/feature_vector.h"
#include "optimizer/optimizer.h"
#include "optimizer/plan_serde.h"
#include "workload/problem_templates.h"
#include "workload/tpcds_templates.h"

namespace qpp::optimizer {
namespace {

class PlanSerdeTest : public ::testing::Test {
 protected:
  PlanSerdeTest() : catalog_(catalog::MakeTpcdsCatalog(1.0)), opt_(&catalog_, {}) {}

  PhysicalPlan Plan(const std::string& sql) {
    auto plan = opt_.Plan(sql);
    EXPECT_TRUE(plan.ok()) << plan.status().message();
    return std::move(plan).value();
  }

  catalog::Catalog catalog_;
  Optimizer opt_;
};

TEST_F(PlanSerdeTest, RoundTripPreservesEverything) {
  const PhysicalPlan plan = Plan(
      "SELECT d_year, COUNT(*) FROM store_sales, date_dim "
      "WHERE ss_sold_date_sk = d_date_sk AND ss_quantity > 10 "
      "GROUP BY d_year ORDER BY d_year LIMIT 5");
  std::stringstream ss;
  WritePlan(plan, &ss);
  const auto back = ReadPlan(&ss);
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(back.value().sql, plan.sql);
  EXPECT_EQ(back.value().query_hash, plan.query_hash);
  EXPECT_EQ(back.value().optimizer_cost, plan.optimizer_cost);
  EXPECT_EQ(back.value().ToString(), plan.ToString());
}

TEST_F(PlanSerdeTest, ReloadedPlanFeaturizesIdentically) {
  const PhysicalPlan plan = Plan(
      "SELECT COUNT(*) FROM store_sales, store_returns "
      "WHERE ss_ext_sales_price > sr_return_amt");
  std::stringstream ss;
  WritePlan(plan, &ss);
  const auto back = ReadPlan(&ss);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(ml::PlanFeatureVector(back.value()),
            ml::PlanFeatureVector(plan));
}

TEST_F(PlanSerdeTest, ReloadedPlanSimulatesIdentically) {
  const PhysicalPlan plan = Plan(
      "SELECT i_category, SUM(ss_net_paid) FROM store_sales, item "
      "WHERE ss_item_sk = i_item_sk GROUP BY i_category");
  std::stringstream ss;
  WritePlan(plan, &ss);
  const auto back = ReadPlan(&ss);
  ASSERT_TRUE(back.ok());
  const engine::ExecutionSimulator sim(&catalog_,
                                       engine::SystemConfig::Neoview4());
  EXPECT_EQ(sim.Execute(back.value()).ToVector(),
            sim.Execute(plan).ToVector());
}

TEST_F(PlanSerdeTest, RoundTripsEveryTemplateShape) {
  std::vector<workload::QueryTemplate> all = workload::TpcdsTemplates();
  for (auto& t : workload::ProblemTemplates()) all.push_back(t);
  for (const auto& tmpl : all) {
    Rng rng(HashString64(tmpl.name));
    const PhysicalPlan plan = Plan(tmpl.instantiate(rng));
    std::stringstream ss;
    WritePlan(plan, &ss);
    const auto back = ReadPlan(&ss);
    ASSERT_TRUE(back.ok()) << tmpl.name;
    EXPECT_EQ(back.value().ToString(), plan.ToString()) << tmpl.name;
  }
}

/// Each corruption of `bytes` either fails to load or loads a plan that
/// writes back exactly the corrupted bytes; it never crashes. Covers every
/// truncation and, at every offset, the byte set to 0x00, to 0xFF and with
/// its top bit flipped.
void ExpectEveryCorruptionRefusedOrExact(const std::string& bytes,
                                         const std::string& name) {
  for (size_t n = 0; n < bytes.size(); ++n) {
    std::istringstream cut(bytes.substr(0, n));
    EXPECT_FALSE(ReadPlan(&cut).ok()) << name << " cut at " << n;
  }
  for (size_t i = 0; i < bytes.size(); ++i) {
    const auto b = static_cast<unsigned char>(bytes[i]);
    for (const unsigned char v : {0x00, 0xFF, b ^ 0x80}) {
      std::string corrupt = bytes;
      corrupt[i] = static_cast<char>(v);
      std::istringstream in(corrupt);
      const auto back = ReadPlan(&in);
      if (!back.ok()) continue;
      std::ostringstream out;
      WritePlan(back.value(), &out);
      EXPECT_EQ(out.str(), corrupt) << name << " offset " << i;
    }
  }
}

TEST_F(PlanSerdeTest, RejectsGarbageAndTruncation) {
  {
    std::stringstream ss;
    ss << "this is not a plan";
    EXPECT_FALSE(ReadPlan(&ss).ok());
  }
  {
    std::stringstream empty;
    EXPECT_FALSE(ReadPlan(&empty).ok());
  }
  std::vector<workload::QueryTemplate> all = workload::TpcdsTemplates();
  for (auto& t : workload::ProblemTemplates()) all.push_back(t);
  for (const auto& tmpl : all) {
    Rng rng(HashString64(tmpl.name));
    std::ostringstream os;
    WritePlan(Plan(tmpl.instantiate(rng)), &os);
    ExpectEveryCorruptionRefusedOrExact(os.str(), tmpl.name);
  }
}

/// A plan file whose `levels` nodes form one chain, written byte by byte
/// so the test builds no deep tree of its own.
std::string ChainPlanBytes(size_t levels) {
  std::ostringstream os;
  BinaryWriter w(os);
  w.WriteU32(0x4E4C5051);  // "QPLN"
  w.WriteU32(1);
  w.WriteString("chain");
  w.WriteU64(0);
  w.WriteDouble(1.0);
  for (size_t i = 0; i < levels; ++i) {
    w.WriteU32(static_cast<uint32_t>(PhysOp::kFilter));
    for (int d = 0; d < 5; ++d) w.WriteDouble(1.0);
    w.WriteString("");
    w.WriteString("");
    w.WriteU32(0);
    w.WriteU64(0);
    w.WriteU64(0);
    w.WriteU64(0);
    w.WriteU64(i + 1 < levels ? 1 : 0);
  }
  return os.str();
}

TEST_F(PlanSerdeTest, RefusesLyingValuesAndTrailingBytes) {
  PhysicalPlan plan = Plan("SELECT i_brand FROM item");
  const auto reread = [&plan](const std::string& suffix) {
    std::ostringstream os;
    WritePlan(plan, &os);
    std::istringstream in(os.str() + suffix);
    return ReadPlan(&in);
  };
  ASSERT_TRUE(reread("").ok());
  EXPECT_FALSE(reread(std::string(14, '\0')).ok());
  EXPECT_FALSE(reread("x").ok());
  PhysicalNode& root = *plan.root;
  for (double* field : {&root.est_rows, &root.true_rows, &root.est_input_rows,
                        &root.true_input_rows, &root.row_width,
                        &plan.optimizer_cost}) {
    const double valid = *field;
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(), -1.0}) {
      *field = bad;
      EXPECT_FALSE(reread("").ok()) << bad;
    }
    *field = valid;
  }
  ASSERT_TRUE(reread("").ok());

  // A one-node plan ends with its flags word and four counts; a flag bit
  // beyond semi | broadcast is refused.
  std::string bytes = ChainPlanBytes(1);
  const size_t flags_at = bytes.size() - 4 * sizeof(uint64_t) - 4;
  bytes[flags_at] = 3;
  std::istringstream both(bytes);
  EXPECT_TRUE(ReadPlan(&both).ok());
  bytes[flags_at] = 4;
  std::istringstream unknown(bytes);
  EXPECT_FALSE(ReadPlan(&unknown).ok());
}

TEST_F(PlanSerdeTest, RefusesPlansDeeperThanTheBound) {
  {
    std::istringstream in(ChainPlanBytes(kMaxPlanDepth));
    const auto deepest = ReadPlan(&in);
    ASSERT_TRUE(deepest.ok()) << deepest.status().message();
    std::ostringstream out;
    WritePlan(deepest.value(), &out);
    EXPECT_EQ(out.str(), ChainPlanBytes(kMaxPlanDepth));
  }
  std::istringstream one_more(ChainPlanBytes(kMaxPlanDepth + 1));
  const auto refused = ReadPlan(&one_more);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().message().find("deeper"), std::string::npos)
      << refused.status().message();
  // A chain far past the bound is an error through the file loader too,
  // not a stack overflow.
  const auto path =
      (std::filesystem::temp_directory_path() / "qpp_deep_plan.bin").string();
  {
    std::ofstream out(path, std::ios::binary);
    out << ChainPlanBytes(20000);
  }
  EXPECT_FALSE(LoadPlanFile(path).ok());
  std::remove(path.c_str());
}

TEST_F(PlanSerdeTest, FileRoundTripAndMissingFile) {
  const auto path =
      (std::filesystem::temp_directory_path() / "qpp_plan_test.bin").string();
  const PhysicalPlan plan = Plan("SELECT COUNT(*) FROM customer");
  ASSERT_TRUE(SavePlanFile(plan, path).ok());
  const auto back = LoadPlanFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().ToString(), plan.ToString());
  std::remove(path.c_str());
  EXPECT_FALSE(LoadPlanFile(path).ok());
}

}  // namespace
}  // namespace qpp::optimizer
