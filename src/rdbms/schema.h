// Table schemas: named, typed columns, a (possibly composite) primary key,
// and optional secondary hash indexes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "rdbms/value.h"

namespace iq::sql {

enum class ColumnType { kInt, kText };

struct Column {
  std::string name;
  ColumnType type;
};

struct TableSchema {
  std::string name;
  std::vector<Column> columns;
  /// Column indices forming the primary key (must be non-empty).
  std::vector<std::size_t> primary_key;
  /// Each secondary index covers one column (hash index, equality only).
  std::vector<std::size_t> secondary_indexes;

  /// Index of a column by name, or nullopt.
  std::optional<std::size_t> ColumnIndex(std::string_view col) const {
    for (std::size_t i = 0; i < columns.size(); ++i) {
      if (columns[i].name == col) return i;
    }
    return std::nullopt;
  }

  /// Extract the primary-key cells from a full row.
  Row PrimaryKeyOf(const Row& row) const {
    Row key;
    key.reserve(primary_key.size());
    for (std::size_t idx : primary_key) key.push_back(row[idx]);
    return key;
  }

  /// True if `row` matches the schema arity and column types (NULL allowed).
  bool RowMatches(const Row& row) const {
    if (row.size() != columns.size()) return false;
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (IsNull(row[i])) continue;
      if (row[i].is_int() != (columns[i].type == ColumnType::kInt)) {
        return false;
      }
    }
    return true;
  }
};

/// Fluent schema builder used by application setup code and tests.
class SchemaBuilder {
 public:
  explicit SchemaBuilder(std::string table_name) { schema_.name = std::move(table_name); }

  SchemaBuilder& AddInt(std::string col) {
    schema_.columns.push_back({std::move(col), ColumnType::kInt});
    return *this;
  }
  SchemaBuilder& AddText(std::string col) {
    schema_.columns.push_back({std::move(col), ColumnType::kText});
    return *this;
  }
  /// Declare the primary key over the named columns (must already exist).
  SchemaBuilder& PrimaryKey(std::initializer_list<std::string> cols) {
    for (const auto& c : cols) {
      auto idx = schema_.ColumnIndex(c);
      if (idx) schema_.primary_key.push_back(*idx);
    }
    return *this;
  }
  /// Declare a secondary hash index on one column.
  SchemaBuilder& Index(const std::string& col) {
    auto idx = schema_.ColumnIndex(col);
    if (idx) schema_.secondary_indexes.push_back(*idx);
    return *this;
  }

  TableSchema Build() const { return schema_; }

 private:
  TableSchema schema_;
};

}  // namespace iq::sql
