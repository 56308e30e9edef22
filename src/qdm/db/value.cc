#include "qdm/db/value.h"

#include <functional>

#include "qdm/common/check.h"
#include "qdm/common/strings.h"

namespace qdm {
namespace db {

const char* ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return "INT64";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
  }
  return "?";
}

ValueType Value::type() const {
  switch (data_.index()) {
    case 0:
      return ValueType::kNull;
    case 1:
      return ValueType::kInt64;
    case 2:
      return ValueType::kDouble;
    default:
      return ValueType::kString;
  }
}

int64_t Value::AsInt64() const {
  QDM_CHECK(type() == ValueType::kInt64)
      << "Value is " << ValueTypeToString(type());
  return std::get<int64_t>(data_);
}

double Value::AsDouble() const {
  if (type() == ValueType::kInt64) {
    return static_cast<double>(std::get<int64_t>(data_));
  }
  QDM_CHECK(type() == ValueType::kDouble)
      << "Value is " << ValueTypeToString(type());
  return std::get<double>(data_);
}

const std::string& Value::AsString() const {
  QDM_CHECK(type() == ValueType::kString)
      << "Value is " << ValueTypeToString(type());
  return std::get<std::string>(data_);
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return StrFormat("%lld", static_cast<long long>(AsInt64()));
    case ValueType::kDouble:
      return StrFormat("%g", std::get<double>(data_));
    case ValueType::kString:
      return "'" + AsString() + "'";
  }
  return "?";
}

size_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x9e3779b9;
    case ValueType::kInt64:
      return std::hash<int64_t>{}(std::get<int64_t>(data_));
    case ValueType::kDouble:
      return std::hash<double>{}(std::get<double>(data_));
    case ValueType::kString:
      return std::hash<std::string>{}(std::get<std::string>(data_));
  }
  return 0;
}

bool operator<(const Value& a, const Value& b) {
  if (a.data_.index() != b.data_.index()) {
    return a.data_.index() < b.data_.index();
  }
  return a.data_ < b.data_;
}

}  // namespace db
}  // namespace qdm
