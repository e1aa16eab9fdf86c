// Unit tests for catalog/: metadata, TPC-DS and retailbank catalogs.
#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "catalog/retailbank.h"
#include "catalog/tpcds.h"

namespace qpp::catalog {
namespace {

TEST(CatalogTest, AddAndLookupCaseInsensitive) {
  Catalog cat;
  Table t;
  t.name = "Orders";
  t.row_count = 10;
  t.columns = {MakeColumn("o_id", ColumnType::kInt, 10, 1, 10, 4, true)};
  cat.AddTable(t);
  EXPECT_NE(cat.FindTable("orders"), nullptr);
  EXPECT_NE(cat.FindTable("ORDERS"), nullptr);
  EXPECT_EQ(cat.FindTable("nope"), nullptr);
  EXPECT_EQ(cat.FindTable("order"), nullptr);
  EXPECT_EQ(cat.FindTable("ordersx"), nullptr);
  EXPECT_NE(cat.FindTable("orders")->FindColumn("O_ID"), nullptr);
  EXPECT_EQ(cat.FindTable("orders")->FindColumn("o_i"), nullptr);
  EXPECT_EQ(cat.FindTable("orders")->FindColumn("o_idx"), nullptr);
}

TEST(CatalogTest, ReplaceKeepsSingleEntry) {
  Catalog cat;
  Table t;
  t.name = "t";
  t.row_count = 1;
  cat.AddTable(t);
  t.row_count = 99;
  cat.AddTable(t);
  EXPECT_EQ(cat.tables().size(), 1u);
  EXPECT_EQ(cat.FindTable("t")->row_count, 99.0);
  t.name = "T";  // the same table in another case
  t.row_count = 7;
  cat.AddTable(t);
  EXPECT_EQ(cat.tables().size(), 1u);
  EXPECT_EQ(cat.FindTable("t")->row_count, 7.0);
}

TEST(CatalogTest, RowWidthSumsColumns) {
  Table t;
  t.columns = {MakeColumn("a", ColumnType::kInt, 1, 0, 0, 4),
               MakeColumn("b", ColumnType::kDouble, 1, 0, 0, 8),
               MakeColumn("c", ColumnType::kString, 1, 0, 0, 12)};
  EXPECT_EQ(t.RowWidthBytes(), 24.0);
}

TEST(TpcdsTest, Sf1RowCountsMatchSpec) {
  const Catalog cat = MakeTpcdsCatalog(1.0);
  EXPECT_EQ(cat.FindTable("store_sales")->row_count, 2880404.0);
  EXPECT_EQ(cat.FindTable("catalog_sales")->row_count, 1441548.0);
  EXPECT_EQ(cat.FindTable("web_sales")->row_count, 719384.0);
  EXPECT_EQ(cat.FindTable("store_returns")->row_count, 287514.0);
  EXPECT_EQ(cat.FindTable("inventory")->row_count, 11745000.0);
  EXPECT_EQ(cat.FindTable("customer")->row_count, 100000.0);
  EXPECT_EQ(cat.FindTable("date_dim")->row_count, 73049.0);
  EXPECT_EQ(cat.FindTable("item")->row_count, 18000.0);
  EXPECT_EQ(cat.FindTable("warehouse")->row_count, 5.0);
}

TEST(TpcdsTest, HasAllTables) {
  const Catalog cat = MakeTpcdsCatalog(1.0);
  for (const char* name :
       {"date_dim", "time_dim", "item", "customer", "customer_address",
        "customer_demographics", "household_demographics", "store",
        "warehouse", "promotion", "web_site", "web_page", "call_center",
        "catalog_page", "ship_mode", "reason", "income_band", "store_sales",
        "catalog_sales", "web_sales", "store_returns", "catalog_returns",
        "web_returns", "inventory"}) {
    EXPECT_NE(cat.FindTable(name), nullptr) << name;
  }
  EXPECT_EQ(cat.tables().size(), 24u);
}

TEST(TpcdsTest, FactTablesScaleLinearly) {
  const Catalog sf1 = MakeTpcdsCatalog(1.0);
  const Catalog sf10 = MakeTpcdsCatalog(10.0);
  EXPECT_NEAR(sf10.FindTable("store_sales")->row_count,
              10.0 * sf1.FindTable("store_sales")->row_count, 1.0);
  // Date dimension is scale-invariant.
  EXPECT_EQ(sf10.FindTable("date_dim")->row_count,
            sf1.FindTable("date_dim")->row_count);
  // Customers scale sub-linearly above SF 1.
  EXPECT_LT(sf10.FindTable("customer")->row_count,
            10.0 * sf1.FindTable("customer")->row_count);
  EXPECT_GT(sf10.FindTable("customer")->row_count,
            sf1.FindTable("customer")->row_count);
}

TEST(TpcdsTest, PrimaryKeysFlagged) {
  const Catalog cat = MakeTpcdsCatalog(1.0);
  const Column* pk = cat.FindTable("item")->FindColumn("i_item_sk");
  ASSERT_NE(pk, nullptr);
  EXPECT_TRUE(pk->is_primary_key);
  EXPECT_EQ(pk->ndv, cat.FindTable("item")->row_count);
}

TEST(TpcdsTest, PartitioningColumnsExist) {
  const Catalog cat = MakeTpcdsCatalog(1.0);
  for (const Table& t : cat.tables()) {
    ASSERT_FALSE(t.partitioning_column.empty()) << t.name;
    EXPECT_NE(t.FindColumn(t.partitioning_column), nullptr) << t.name;
  }
}

TEST(RetailBankTest, SchemaDiffersFromTpcds) {
  const Catalog bank = MakeRetailBankCatalog();
  EXPECT_NE(bank.FindTable("transactions"), nullptr);
  EXPECT_NE(bank.FindTable("accounts"), nullptr);
  EXPECT_EQ(bank.FindTable("store_sales"), nullptr);
  // No column name collisions with TPC-DS fact columns.
  EXPECT_EQ(bank.FindTable("transactions")->FindColumn("ss_item_sk"), nullptr);
}

TEST(RetailBankTest, ColumnStatsSane) {
  const Catalog bank = MakeRetailBankCatalog();
  for (const Table& t : bank.tables()) {
    EXPECT_GT(t.row_count, 0.0) << t.name;
    for (const Column& c : t.columns) {
      EXPECT_GE(c.ndv, 1.0) << t.name << "." << c.name;
      EXPECT_GT(c.avg_width_bytes, 0.0) << t.name << "." << c.name;
    }
  }
}

}  // namespace
}  // namespace qpp::catalog
