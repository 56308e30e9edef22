#include "qdm/db/table.h"

#include <set>

#include "qdm/common/check.h"
#include "qdm/common/strings.h"

namespace qdm {
namespace db {

Schema::Schema(std::vector<Column> columns) : columns_(std::move(columns)) {
  std::set<std::string> names;
  for (const Column& c : columns_) {
    QDM_CHECK(names.insert(c.name).second) << "duplicate column " << c.name;
  }
}

const Column& Schema::column(size_t i) const {
  QDM_CHECK_LT(i, columns_.size());
  return columns_[i];
}

Result<size_t> Schema::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return i;
  }
  return Status::NotFound("no column named " + name);
}

Schema Schema::Concat(const Schema& other) const {
  std::vector<Column> merged = columns_;
  std::set<std::string> names;
  for (const Column& c : columns_) names.insert(c.name);
  for (const Column& c : other.columns_) {
    Column renamed = c;
    while (names.count(renamed.name)) renamed.name = "r_" + renamed.name;
    names.insert(renamed.name);
    merged.push_back(renamed);
  }
  return Schema(std::move(merged));
}

std::string Schema::ToString() const {
  std::vector<std::string> parts;
  for (const Column& c : columns_) {
    parts.push_back(c.name + ":" + ValueTypeToString(c.type));
  }
  return "(" + StrJoin(parts, ", ") + ")";
}

const Row& Table::row(size_t i) const {
  QDM_CHECK_LT(i, rows_.size());
  return rows_[i];
}

Status Table::Append(Row row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        StrFormat("row has %zu values, schema %s has %zu columns", row.size(),
                  name_.c_str(), schema_.num_columns()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (!row[i].is_null() && row[i].type() != schema_.column(i).type) {
      return Status::InvalidArgument(StrFormat(
          "column %s expects %s, got %s", schema_.column(i).name.c_str(),
          ValueTypeToString(schema_.column(i).type),
          ValueTypeToString(row[i].type())));
    }
  }
  rows_.push_back(std::move(row));
  return Status::Ok();
}

std::string Table::ToString(size_t max_rows) const {
  std::string out = name_ + " " + schema_.ToString() +
                    StrFormat(" [%zu rows]\n", rows_.size());
  for (size_t i = 0; i < rows_.size() && i < max_rows; ++i) {
    std::vector<std::string> cells;
    for (const Value& v : rows_[i]) cells.push_back(v.ToString());
    out += "  " + StrJoin(cells, ", ") + "\n";
  }
  if (rows_.size() > max_rows) out += "  ...\n";
  return out;
}

}  // namespace db
}  // namespace qdm
