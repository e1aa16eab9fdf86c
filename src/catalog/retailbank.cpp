#include "catalog/retailbank.h"

#include <algorithm>
#include <cmath>

namespace qpp::catalog {

Catalog MakeRetailBankCatalog(double scale) {
  const double sf = std::max(scale, 0.01);
  const auto lin = [&](double r) { return std::round(r * sf); };

  Catalog cat;

  {
    Table t;
    t.name = "branches";
    t.row_count = 500;
    t.partitioning_column = "b_branch_id";
    t.columns = {
        MakeColumn("b_branch_id", ColumnType::kInt, 500, 1, 500, 4.0, true),
        MakeColumn("b_region_id", ColumnType::kInt, 12, 1, 12, 4.0),
        MakeColumn("b_state", ColumnType::kString, 50, 0, 50, 2.0),
        MakeColumn("b_opened_year", ColumnType::kInt, 60, 1950, 2009, 4.0),
    };
    cat.AddTable(t);
  }
  {
    Table t;
    t.name = "clients";
    t.row_count = lin(200000);
    t.partitioning_column = "cl_client_id";
    t.columns = {
        MakeColumn("cl_client_id", ColumnType::kInt, lin(200000), 1,
                   lin(200000), 4.0, true),
        MakeColumn("cl_home_branch_id", ColumnType::kInt, 500, 1, 500, 4.0),
        MakeColumn("cl_segment", ColumnType::kString, 5, 0, 5, 8.0),
        MakeColumn("cl_birth_year", ColumnType::kInt, 80, 1920, 1999, 4.0),
        MakeColumn("cl_risk_score", ColumnType::kInt, 800, 300, 850, 4.0),
    };
    cat.AddTable(t);
  }
  {
    Table t;
    t.name = "accounts";
    t.row_count = lin(400000);
    t.partitioning_column = "a_account_id";
    t.columns = {
        MakeColumn("a_account_id", ColumnType::kInt, lin(400000), 1,
                   lin(400000), 4.0, true),
        MakeColumn("a_client_id", ColumnType::kInt, lin(200000), 1,
                   lin(200000), 4.0),
        MakeColumn("a_branch_id", ColumnType::kInt, 500, 1, 500, 4.0),
        MakeColumn("a_type", ColumnType::kString, 6, 0, 6, 8.0),
        MakeColumn("a_status", ColumnType::kString, 4, 0, 4, 8.0),
        MakeColumn("a_opened_date", ColumnType::kDate, 7300, 2440000, 2447300,
                   4.0),
        MakeColumn("a_balance", ColumnType::kDouble, 1000000, -50000.0,
                   5000000.0, 8.0),
    };
    cat.AddTable(t);
  }
  {
    Table t;
    t.name = "cards";
    t.row_count = lin(450000);
    t.partitioning_column = "cd_card_id";
    t.columns = {
        MakeColumn("cd_card_id", ColumnType::kInt, lin(450000), 1,
                   lin(450000), 4.0, true),
        MakeColumn("cd_account_id", ColumnType::kInt, lin(400000), 1,
                   lin(400000), 4.0),
        MakeColumn("cd_network", ColumnType::kString, 4, 0, 4, 8.0),
        MakeColumn("cd_expiry_year", ColumnType::kInt, 8, 2008, 2015, 4.0),
    };
    cat.AddTable(t);
  }
  {
    Table t;
    t.name = "merchants";
    t.row_count = lin(20000);
    t.partitioning_column = "m_merchant_id";
    t.columns = {
        MakeColumn("m_merchant_id", ColumnType::kInt, lin(20000), 1,
                   lin(20000), 4.0, true),
        MakeColumn("m_category", ColumnType::kString, 300, 0, 300, 12.0),
        MakeColumn("m_state", ColumnType::kString, 50, 0, 50, 2.0),
    };
    cat.AddTable(t);
  }
  {
    Table t;
    t.name = "transactions";
    t.row_count = lin(5000000);
    t.partitioning_column = "tx_account_id";
    t.columns = {
        MakeColumn("tx_id", ColumnType::kInt, lin(5000000), 1, lin(5000000),
                   8.0, true),
        MakeColumn("tx_account_id", ColumnType::kInt, lin(400000), 1,
                   lin(400000), 4.0),
        MakeColumn("tx_merchant_id", ColumnType::kInt, lin(20000), 1,
                   lin(20000), 4.0),
        MakeColumn("tx_date", ColumnType::kDate, 1095, 2454100, 2455194, 4.0),
        MakeColumn("tx_amount", ColumnType::kDouble, 500000, -20000.0,
                   20000.0, 8.0),
        MakeColumn("tx_channel", ColumnType::kString, 5, 0, 5, 8.0),
        MakeColumn("tx_status", ColumnType::kString, 3, 0, 3, 8.0),
    };
    cat.AddTable(t);
  }
  {
    Table t;
    t.name = "card_swipes";
    t.row_count = lin(3000000);
    t.partitioning_column = "sw_card_id";
    t.columns = {
        MakeColumn("sw_swipe_id", ColumnType::kInt, lin(3000000), 1,
                   lin(3000000), 8.0, true),
        MakeColumn("sw_card_id", ColumnType::kInt, lin(450000), 1,
                   lin(450000), 4.0),
        MakeColumn("sw_merchant_id", ColumnType::kInt, lin(20000), 1,
                   lin(20000), 4.0),
        MakeColumn("sw_date", ColumnType::kDate, 1095, 2454100, 2455194, 4.0),
        MakeColumn("sw_amount", ColumnType::kDouble, 200000, 0.0, 5000.0,
                   8.0),
        MakeColumn("sw_approved", ColumnType::kString, 2, 0, 2, 1.0),
    };
    cat.AddTable(t);
  }
  {
    Table t;
    t.name = "loans";
    t.row_count = lin(100000);
    t.partitioning_column = "l_loan_id";
    t.columns = {
        MakeColumn("l_loan_id", ColumnType::kInt, lin(100000), 1, lin(100000),
                   4.0, true),
        MakeColumn("l_client_id", ColumnType::kInt, lin(200000), 1,
                   lin(200000), 4.0),
        MakeColumn("l_branch_id", ColumnType::kInt, 500, 1, 500, 4.0),
        MakeColumn("l_product", ColumnType::kString, 8, 0, 8, 10.0),
        MakeColumn("l_principal", ColumnType::kDouble, 90000, 1000.0,
                   2000000.0, 8.0),
        MakeColumn("l_rate_bps", ColumnType::kInt, 900, 100, 1000, 4.0),
        MakeColumn("l_origination_date", ColumnType::kDate, 5475, 2449718,
                   2455194, 4.0),
    };
    cat.AddTable(t);
  }

  return cat;
}

}  // namespace qpp::catalog
