#include "catalog/tpcds.h"

#include <algorithm>
#include <cmath>

namespace qpp::catalog {

namespace {

constexpr double kDateSkMin = 2415022;  // 1900-01-02, per TPC-DS spec
constexpr double kDateSkMax = 2488070;  // 2100-01-01
// Sales in TPC-DS span ~5 years of date_dim; FK NDV reflects that.
constexpr double kSalesDateNdv = 1823;
constexpr double kSalesDateMin = 2450815;
constexpr double kSalesDateMax = 2452654;

Column Fk(const std::string& name, double dim_rows, double dim_min,
          double dim_max) {
  return MakeColumn(name, ColumnType::kInt, dim_rows, dim_min, dim_max, 4.0);
}

Column DateFk(const std::string& name) {
  return MakeColumn(name, ColumnType::kDate, kSalesDateNdv, kSalesDateMin,
                    kSalesDateMax, 4.0);
}

Column Money(const std::string& name, double lo, double hi, double ndv) {
  return MakeColumn(name, ColumnType::kDouble, ndv, lo, hi, 8.0);
}

Column Str(const std::string& name, double ndv, double width) {
  return MakeColumn(name, ColumnType::kString, ndv, 0, ndv, width);
}

}  // namespace

Catalog MakeTpcdsCatalog(double scale_factor) {
  const double sf = std::max(scale_factor, 0.01);
  // Fact tables scale linearly; customer-related dimensions scale with a
  // sub-linear power (TPC-DS scales them stepwise; sqrt is a faithful
  // smooth stand-in); small dimensions and date/time are fixed.
  const auto lin = [&](double r) { return std::round(r * sf); };
  const auto sub = [&](double r) {
    return std::round(r * (sf <= 1.0 ? sf : std::sqrt(sf)));
  };

  const double n_customer = sub(100000);
  const double n_address = sub(50000);
  const double n_cdemo = 1920800;  // fixed cross-product table in TPC-DS
  const double n_hdemo = 7200;
  const double n_item = sub(18000);
  const double n_store = std::max(12.0, std::round(12 * std::log2(1 + sf)));
  const double n_warehouse = 5;
  const double n_promo = sub(300);
  const double n_web_site = 30;
  const double n_web_page = sub(60);
  const double n_call_center = 6;
  const double n_catalog_page = 11718;
  const double n_ship_mode = 20;
  const double n_reason = 35;
  const double n_income_band = 20;

  Catalog cat;

  {
    Table t;
    t.name = "date_dim";
    t.row_count = 73049;
    t.partitioning_column = "d_date_sk";
    t.columns = {
        MakeColumn("d_date_sk", ColumnType::kInt, 73049, kDateSkMin,
                   kDateSkMax, 4.0, true),
        MakeColumn("d_year", ColumnType::kInt, 201, 1900, 2100, 4.0),
        MakeColumn("d_moy", ColumnType::kInt, 12, 1, 12, 4.0),
        MakeColumn("d_dom", ColumnType::kInt, 31, 1, 31, 4.0),
        MakeColumn("d_qoy", ColumnType::kInt, 4, 1, 4, 4.0),
        MakeColumn("d_dow", ColumnType::kInt, 7, 0, 6, 4.0),
        MakeColumn("d_month_seq", ColumnType::kInt, 2412, 0, 2411, 4.0),
        Str("d_day_name", 7, 9),
    };
    cat.AddTable(t);
  }
  {
    Table t;
    t.name = "time_dim";
    t.row_count = 86400;
    t.partitioning_column = "t_time_sk";
    t.columns = {
        MakeColumn("t_time_sk", ColumnType::kInt, 86400, 0, 86399, 4.0, true),
        MakeColumn("t_hour", ColumnType::kInt, 24, 0, 23, 4.0),
        MakeColumn("t_minute", ColumnType::kInt, 60, 0, 59, 4.0),
        Str("t_am_pm", 2, 2),
    };
    cat.AddTable(t);
  }
  {
    Table t;
    t.name = "item";
    t.row_count = n_item;
    t.partitioning_column = "i_item_sk";
    t.columns = {
        MakeColumn("i_item_sk", ColumnType::kInt, n_item, 1, n_item, 4.0,
                   true),
        MakeColumn("i_brand_id", ColumnType::kInt, 951, 1001001, 10016017,
                   4.0),
        Str("i_brand", 713, 22),
        Str("i_class", 99, 15),
        MakeColumn("i_class_id", ColumnType::kInt, 16, 1, 16, 4.0),
        Str("i_category", 10, 12),
        MakeColumn("i_category_id", ColumnType::kInt, 10, 1, 10, 4.0),
        MakeColumn("i_manufact_id", ColumnType::kInt, 1000, 1, 1000, 4.0),
        MakeColumn("i_manager_id", ColumnType::kInt, 100, 1, 100, 4.0),
        Money("i_current_price", 0.09, 99.99, 9000),
        Money("i_wholesale_cost", 0.02, 88.0, 7000),
        Str("i_color", 92, 11),
        Str("i_size", 7, 11),
    };
    cat.AddTable(t);
  }
  {
    Table t;
    t.name = "customer";
    t.row_count = n_customer;
    t.partitioning_column = "c_customer_sk";
    t.columns = {
        MakeColumn("c_customer_sk", ColumnType::kInt, n_customer, 1,
                   n_customer, 4.0, true),
        Fk("c_current_cdemo_sk", n_cdemo, 1, n_cdemo),
        Fk("c_current_hdemo_sk", n_hdemo, 1, n_hdemo),
        Fk("c_current_addr_sk", n_address, 1, n_address),
        MakeColumn("c_birth_year", ColumnType::kInt, 69, 1924, 1992, 4.0),
        MakeColumn("c_birth_month", ColumnType::kInt, 12, 1, 12, 4.0),
        Str("c_birth_country", 211, 13),
        Str("c_preferred_cust_flag", 2, 1),
        MakeColumn("c_first_shipto_date_sk", ColumnType::kDate, 3585, 2449028,
                   2452678, 4.0),
    };
    cat.AddTable(t);
  }
  {
    Table t;
    t.name = "customer_address";
    t.row_count = n_address;
    t.partitioning_column = "ca_address_sk";
    t.columns = {
        MakeColumn("ca_address_sk", ColumnType::kInt, n_address, 1, n_address,
                   4.0, true),
        Str("ca_city", 693, 14),
        Str("ca_county", 1850, 15),
        Str("ca_state", 51, 2),
        Str("ca_zip", 7733, 5),
        Str("ca_country", 1, 13),
        Money("ca_gmt_offset", -10.0, -5.0, 6),
    };
    cat.AddTable(t);
  }
  {
    Table t;
    t.name = "customer_demographics";
    t.row_count = n_cdemo;
    t.partitioning_column = "cd_demo_sk";
    t.columns = {
        MakeColumn("cd_demo_sk", ColumnType::kInt, n_cdemo, 1, n_cdemo, 4.0,
                   true),
        Str("cd_gender", 2, 1),
        Str("cd_marital_status", 5, 1),
        Str("cd_education_status", 7, 15),
        MakeColumn("cd_purchase_estimate", ColumnType::kInt, 20, 500, 10000,
                   4.0),
        Str("cd_credit_rating", 4, 10),
        MakeColumn("cd_dep_count", ColumnType::kInt, 7, 0, 6, 4.0),
    };
    cat.AddTable(t);
  }
  {
    Table t;
    t.name = "household_demographics";
    t.row_count = n_hdemo;
    t.partitioning_column = "hd_demo_sk";
    t.columns = {
        MakeColumn("hd_demo_sk", ColumnType::kInt, n_hdemo, 1, n_hdemo, 4.0,
                   true),
        Fk("hd_income_band_sk", n_income_band, 1, n_income_band),
        Str("hd_buy_potential", 6, 10),
        MakeColumn("hd_dep_count", ColumnType::kInt, 10, 0, 9, 4.0),
        MakeColumn("hd_vehicle_count", ColumnType::kInt, 6, -1, 4, 4.0),
    };
    cat.AddTable(t);
  }
  {
    Table t;
    t.name = "store";
    t.row_count = n_store;
    t.partitioning_column = "s_store_sk";
    t.columns = {
        MakeColumn("s_store_sk", ColumnType::kInt, n_store, 1, n_store, 4.0,
                   true),
        Str("s_state", 9, 2),
        Str("s_county", 9, 15),
        Str("s_city", 12, 12),
        MakeColumn("s_market_id", ColumnType::kInt, 10, 1, 10, 4.0),
        MakeColumn("s_number_employees", ColumnType::kInt, 97, 200, 300, 4.0),
        Money("s_gmt_offset", -10.0, -5.0, 2),
    };
    cat.AddTable(t);
  }
  {
    Table t;
    t.name = "warehouse";
    t.row_count = n_warehouse;
    t.partitioning_column = "w_warehouse_sk";
    t.columns = {
        MakeColumn("w_warehouse_sk", ColumnType::kInt, n_warehouse, 1,
                   n_warehouse, 4.0, true),
        Str("w_state", 5, 2),
        MakeColumn("w_warehouse_sq_ft", ColumnType::kInt, 5, 50000, 1000000,
                   4.0),
    };
    cat.AddTable(t);
  }
  {
    Table t;
    t.name = "promotion";
    t.row_count = n_promo;
    t.partitioning_column = "p_promo_sk";
    t.columns = {
        MakeColumn("p_promo_sk", ColumnType::kInt, n_promo, 1, n_promo, 4.0,
                   true),
        Str("p_channel_email", 2, 1),
        Str("p_channel_tv", 2, 1),
        Str("p_channel_event", 2, 1),
        MakeColumn("p_response_target", ColumnType::kInt, 1, 1, 1, 4.0),
    };
    cat.AddTable(t);
  }
  {
    Table t;
    t.name = "web_site";
    t.row_count = n_web_site;
    t.partitioning_column = "web_site_sk";
    t.columns = {
        MakeColumn("web_site_sk", ColumnType::kInt, n_web_site, 1, n_web_site,
                   4.0, true),
        Str("web_class", 5, 10),
        Str("web_state", 9, 2),
    };
    cat.AddTable(t);
  }
  {
    Table t;
    t.name = "web_page";
    t.row_count = n_web_page;
    t.partitioning_column = "wp_web_page_sk";
    t.columns = {
        MakeColumn("wp_web_page_sk", ColumnType::kInt, n_web_page, 1,
                   n_web_page, 4.0, true),
        Str("wp_type", 7, 9),
        MakeColumn("wp_char_count", ColumnType::kInt, 1363, 303, 8523, 4.0),
    };
    cat.AddTable(t);
  }
  {
    Table t;
    t.name = "call_center";
    t.row_count = n_call_center;
    t.partitioning_column = "cc_call_center_sk";
    t.columns = {
        MakeColumn("cc_call_center_sk", ColumnType::kInt, n_call_center, 1,
                   n_call_center, 4.0, true),
        Str("cc_class", 3, 6),
        MakeColumn("cc_employees", ColumnType::kInt, 6, 100, 7000, 4.0),
    };
    cat.AddTable(t);
  }
  {
    Table t;
    t.name = "catalog_page";
    t.row_count = n_catalog_page;
    t.partitioning_column = "cp_catalog_page_sk";
    t.columns = {
        MakeColumn("cp_catalog_page_sk", ColumnType::kInt, n_catalog_page, 1,
                   n_catalog_page, 4.0, true),
        MakeColumn("cp_catalog_number", ColumnType::kInt, 109, 1, 109, 4.0),
        MakeColumn("cp_catalog_page_number", ColumnType::kInt, 108, 1, 108,
                   4.0),
    };
    cat.AddTable(t);
  }
  {
    Table t;
    t.name = "ship_mode";
    t.row_count = n_ship_mode;
    t.partitioning_column = "sm_ship_mode_sk";
    t.columns = {
        MakeColumn("sm_ship_mode_sk", ColumnType::kInt, n_ship_mode, 1,
                   n_ship_mode, 4.0, true),
        Str("sm_type", 6, 9),
        Str("sm_carrier", 20, 10),
    };
    cat.AddTable(t);
  }
  {
    Table t;
    t.name = "reason";
    t.row_count = n_reason;
    t.partitioning_column = "r_reason_sk";
    t.columns = {
        MakeColumn("r_reason_sk", ColumnType::kInt, n_reason, 1, n_reason,
                   4.0, true),
        Str("r_reason_desc", 35, 13),
    };
    cat.AddTable(t);
  }
  {
    Table t;
    t.name = "income_band";
    t.row_count = n_income_band;
    t.partitioning_column = "ib_income_band_sk";
    t.columns = {
        MakeColumn("ib_income_band_sk", ColumnType::kInt, n_income_band, 1,
                   n_income_band, 4.0, true),
        MakeColumn("ib_lower_bound", ColumnType::kInt, 20, 0, 190001, 4.0),
        MakeColumn("ib_upper_bound", ColumnType::kInt, 20, 10000, 200000, 4.0),
    };
    cat.AddTable(t);
  }

  // --- Fact tables -------------------------------------------------------
  {
    Table t;
    t.name = "store_sales";
    t.row_count = lin(2880404);
    t.partitioning_column = "ss_item_sk";
    t.columns = {
        DateFk("ss_sold_date_sk"),
        Fk("ss_sold_time_sk", 46800, 28800, 75599),
        Fk("ss_item_sk", n_item, 1, n_item),
        Fk("ss_customer_sk", n_customer, 1, n_customer),
        Fk("ss_cdemo_sk", n_cdemo, 1, n_cdemo),
        Fk("ss_hdemo_sk", n_hdemo, 1, n_hdemo),
        Fk("ss_addr_sk", n_address, 1, n_address),
        Fk("ss_store_sk", n_store, 1, n_store),
        Fk("ss_promo_sk", n_promo, 1, n_promo),
        MakeColumn("ss_ticket_number", ColumnType::kInt, lin(240000), 1,
                   lin(240000), 8.0),
        MakeColumn("ss_quantity", ColumnType::kInt, 100, 1, 100, 4.0),
        Money("ss_wholesale_cost", 1.0, 100.0, 9900),
        Money("ss_list_price", 1.0, 200.0, 19900),
        Money("ss_sales_price", 0.0, 200.0, 19900),
        Money("ss_ext_sales_price", 0.0, 20000.0, 700000),
        Money("ss_ext_discount_amt", 0.0, 19000.0, 600000),
        Money("ss_net_paid", 0.0, 20000.0, 700000),
        Money("ss_net_profit", -10000.0, 10000.0, 900000),
    };
    cat.AddTable(t);
  }
  {
    Table t;
    t.name = "catalog_sales";
    t.row_count = lin(1441548);
    t.partitioning_column = "cs_item_sk";
    t.columns = {
        DateFk("cs_sold_date_sk"),
        DateFk("cs_ship_date_sk"),
        Fk("cs_bill_customer_sk", n_customer, 1, n_customer),
        Fk("cs_ship_customer_sk", n_customer, 1, n_customer),
        Fk("cs_bill_cdemo_sk", n_cdemo, 1, n_cdemo),
        Fk("cs_bill_hdemo_sk", n_hdemo, 1, n_hdemo),
        Fk("cs_item_sk", n_item, 1, n_item),
        Fk("cs_call_center_sk", n_call_center, 1, n_call_center),
        Fk("cs_catalog_page_sk", n_catalog_page, 1, n_catalog_page),
        Fk("cs_ship_mode_sk", n_ship_mode, 1, n_ship_mode),
        Fk("cs_warehouse_sk", n_warehouse, 1, n_warehouse),
        Fk("cs_promo_sk", n_promo, 1, n_promo),
        MakeColumn("cs_order_number", ColumnType::kInt, lin(160000), 1,
                   lin(160000), 8.0),
        MakeColumn("cs_quantity", ColumnType::kInt, 100, 1, 100, 4.0),
        Money("cs_list_price", 1.0, 300.0, 29900),
        Money("cs_sales_price", 0.0, 300.0, 29900),
        Money("cs_ext_sales_price", 0.0, 30000.0, 1000000),
        Money("cs_net_profit", -10000.0, 20000.0, 1500000),
    };
    cat.AddTable(t);
  }
  {
    Table t;
    t.name = "web_sales";
    t.row_count = lin(719384);
    t.partitioning_column = "ws_item_sk";
    t.columns = {
        DateFk("ws_sold_date_sk"),
        DateFk("ws_ship_date_sk"),
        Fk("ws_item_sk", n_item, 1, n_item),
        Fk("ws_bill_customer_sk", n_customer, 1, n_customer),
        Fk("ws_web_site_sk", n_web_site, 1, n_web_site),
        Fk("ws_web_page_sk", n_web_page, 1, n_web_page),
        Fk("ws_warehouse_sk", n_warehouse, 1, n_warehouse),
        Fk("ws_ship_mode_sk", n_ship_mode, 1, n_ship_mode),
        Fk("ws_promo_sk", n_promo, 1, n_promo),
        MakeColumn("ws_order_number", ColumnType::kInt, lin(60000), 1,
                   lin(60000), 8.0),
        MakeColumn("ws_quantity", ColumnType::kInt, 100, 1, 100, 4.0),
        Money("ws_sales_price", 0.0, 300.0, 29900),
        Money("ws_ext_sales_price", 0.0, 30000.0, 1000000),
        Money("ws_net_profit", -10000.0, 20000.0, 1500000),
    };
    cat.AddTable(t);
  }
  {
    Table t;
    t.name = "store_returns";
    t.row_count = lin(287514);
    t.partitioning_column = "sr_item_sk";
    t.columns = {
        MakeColumn("sr_returned_date_sk", ColumnType::kDate, 2010, kSalesDateMin,
                   kSalesDateMax + 120, 4.0),
        Fk("sr_item_sk", n_item, 1, n_item),
        Fk("sr_customer_sk", n_customer, 1, n_customer),
        Fk("sr_store_sk", n_store, 1, n_store),
        Fk("sr_reason_sk", n_reason, 1, n_reason),
        MakeColumn("sr_ticket_number", ColumnType::kInt, lin(240000), 1,
                   lin(240000), 8.0),
        MakeColumn("sr_return_quantity", ColumnType::kInt, 100, 1, 100, 4.0),
        Money("sr_return_amt", 0.0, 20000.0, 500000),
        Money("sr_net_loss", 0.0, 10000.0, 400000),
    };
    cat.AddTable(t);
  }
  {
    Table t;
    t.name = "catalog_returns";
    t.row_count = lin(144067);
    t.partitioning_column = "cr_item_sk";
    t.columns = {
        MakeColumn("cr_returned_date_sk", ColumnType::kDate, 2100, kSalesDateMin,
                   kSalesDateMax + 120, 4.0),
        Fk("cr_item_sk", n_item, 1, n_item),
        Fk("cr_refunded_customer_sk", n_customer, 1, n_customer),
        Fk("cr_call_center_sk", n_call_center, 1, n_call_center),
        Fk("cr_reason_sk", n_reason, 1, n_reason),
        MakeColumn("cr_order_number", ColumnType::kInt, lin(160000), 1,
                   lin(160000), 8.0),
        MakeColumn("cr_return_quantity", ColumnType::kInt, 100, 1, 100, 4.0),
        Money("cr_return_amount", 0.0, 30000.0, 500000),
        Money("cr_net_loss", 0.0, 16000.0, 400000),
    };
    cat.AddTable(t);
  }
  {
    Table t;
    t.name = "web_returns";
    t.row_count = lin(71763);
    t.partitioning_column = "wr_item_sk";
    t.columns = {
        MakeColumn("wr_returned_date_sk", ColumnType::kDate, 2190, kSalesDateMin,
                   kSalesDateMax + 120, 4.0),
        Fk("wr_item_sk", n_item, 1, n_item),
        Fk("wr_refunded_customer_sk", n_customer, 1, n_customer),
        Fk("wr_web_page_sk", n_web_page, 1, n_web_page),
        Fk("wr_reason_sk", n_reason, 1, n_reason),
        MakeColumn("wr_order_number", ColumnType::kInt, lin(60000), 1,
                   lin(60000), 8.0),
        MakeColumn("wr_return_quantity", ColumnType::kInt, 100, 1, 100, 4.0),
        Money("wr_return_amt", 0.0, 30000.0, 400000),
        Money("wr_net_loss", 0.0, 16000.0, 300000),
    };
    cat.AddTable(t);
  }
  {
    Table t;
    t.name = "inventory";
    t.row_count = lin(11745000);
    t.partitioning_column = "inv_item_sk";
    t.columns = {
        MakeColumn("inv_date_sk", ColumnType::kDate, 261, kSalesDateMin,
                   kSalesDateMax, 4.0),
        Fk("inv_item_sk", n_item, 1, n_item),
        Fk("inv_warehouse_sk", n_warehouse, 1, n_warehouse),
        MakeColumn("inv_quantity_on_hand", ColumnType::kInt, 1000, 0, 1000,
                   4.0),
    };
    cat.AddTable(t);
  }

  return cat;
}

}  // namespace qpp::catalog
