#include "catalog/catalog.h"

#include "common/str_util.h"

namespace qpp::catalog {

double Table::RowWidthBytes() const {
  double w = 0.0;
  for (const Column& c : columns) w += c.avg_width_bytes;
  return w;
}

const Column* Table::FindColumn(const std::string& name) const {
  for (const Column& c : columns) {
    if (EqualsIgnoreCaseAscii(c.name, name)) return &c;
  }
  return nullptr;
}

void Catalog::AddTable(Table table) {
  auto it = index_.find(table.name);
  if (it != index_.end()) {
    tables_[it->second] = std::move(table);
    return;
  }
  index_.emplace(table.name, tables_.size());
  tables_.push_back(std::move(table));
}

const Table* Catalog::FindTable(const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) return nullptr;
  return &tables_[it->second];
}

Column MakeColumn(std::string name, ColumnType type, double ndv,
                  double min_value, double max_value, double width_bytes,
                  bool is_primary_key) {
  Column c;
  c.name = std::move(name);
  c.type = type;
  c.ndv = ndv;
  c.min_value = min_value;
  c.max_value = max_value;
  c.avg_width_bytes = width_bytes;
  c.is_primary_key = is_primary_key;
  return c;
}

}  // namespace qpp::catalog
