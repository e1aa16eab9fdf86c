// Schema and table statistics metadata.
//
// The optimizer estimates cardinalities from these statistics (row counts,
// NDVs, min/max) exactly the way a System-R-style optimizer would; the
// execution simulator consumes the same metadata plus hidden true
// selectivities to produce "actual" run-time cardinalities. Two concrete
// catalogs ship with the library: the TPC-DS schema at a configurable scale
// factor (tpcds.h) and an unrelated "retailbank" customer schema used for
// the paper's Experiment 4 (retailbank.h).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/str_util.h"

namespace qpp::catalog {

/// Supported column value domains. The simulator never materializes values;
/// types matter only for statistics and predicate selectivity modeling.
enum class ColumnType { kInt, kDouble, kString, kDate };

/// Per-column statistics, the optimizer's only knowledge about data.
struct Column {
  std::string name;
  ColumnType type = ColumnType::kInt;
  /// Number of distinct values.
  double ndv = 1.0;
  /// Value range for range-predicate selectivity (keys/dates/numerics).
  double min_value = 0.0;
  double max_value = 0.0;
  /// Average encoded width in bytes (drives message/disk volumes).
  double avg_width_bytes = 8.0;
  /// True if this is (part of) the table's primary key.
  bool is_primary_key = false;
};

/// A base table with row count, columns, and physical layout hints.
struct Table {
  std::string name;
  double row_count = 0.0;
  std::vector<Column> columns;
  /// Column used for hash-partitioning across disks (usually the PK).
  std::string partitioning_column;

  /// Sum of column widths: bytes per row as stored/shipped.
  double RowWidthBytes() const;

  /// Looks up a column by name (case-insensitive); nullptr if absent.
  const Column* FindColumn(const std::string& name) const;
};

/// A collection of tables. Lookups are case-insensitive.
class Catalog {
 public:
  /// Registers a table; replaces an existing table with the same name.
  void AddTable(Table table);

  /// Table lookup; nullptr when absent.
  const Table* FindTable(const std::string& name) const;

  /// All tables in registration order.
  const std::vector<Table>& tables() const { return tables_; }

 private:
  std::vector<Table> tables_;
  // name -> position; finds compare case-folded in place, allocating nothing
  std::map<std::string, size_t, LessIgnoreCaseAscii> index_;
};

/// Helper to build a column with one call (keeps catalog definitions terse).
Column MakeColumn(std::string name, ColumnType type, double ndv,
                  double min_value, double max_value, double width_bytes,
                  bool is_primary_key = false);

}  // namespace qpp::catalog
