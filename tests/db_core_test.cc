#include <gtest/gtest.h>

#include "qdm/db/catalog.h"
#include "qdm/db/table.h"
#include "qdm/db/value.h"

namespace qdm {
namespace db {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value().type(), ValueType::kNull);
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(int64_t{42}).AsInt64(), 42);
  EXPECT_DOUBLE_EQ(Value(3.5).AsDouble(), 3.5);
  EXPECT_EQ(Value(std::string("x")).AsString(), "x");
}

TEST(ValueTest, Int64PromotesToDouble) {
  EXPECT_DOUBLE_EQ(Value(int64_t{7}).AsDouble(), 7.0);
}

TEST(ValueTest, EqualityAndOrdering) {
  EXPECT_EQ(Value(int64_t{1}), Value(int64_t{1}));
  EXPECT_FALSE(Value(int64_t{1}) == Value(int64_t{2}));
  EXPECT_LT(Value(int64_t{1}), Value(int64_t{2}));
  EXPECT_LT(Value(std::string("a")), Value(std::string("b")));
  // Cross-type ordering is by type index (NULL < int < double < string).
  EXPECT_LT(Value(), Value(int64_t{0}));
  EXPECT_LT(Value(int64_t{5}), Value(std::string("")));
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value().ToString(), "NULL");
  EXPECT_EQ(Value(int64_t{-3}).ToString(), "-3");
  EXPECT_EQ(Value(std::string("ab")).ToString(), "'ab'");
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(int64_t{9}).Hash(), Value(int64_t{9}).Hash());
  EXPECT_EQ(Value(std::string("q")).Hash(), Value(std::string("q")).Hash());
}

TEST(SchemaTest, ColumnLookup) {
  Schema s({{"id", ValueType::kInt64}, {"name", ValueType::kString}});
  EXPECT_EQ(s.num_columns(), 2u);
  ASSERT_TRUE(s.ColumnIndex("name").ok());
  EXPECT_EQ(*s.ColumnIndex("name"), 1u);
  EXPECT_EQ(s.ColumnIndex("missing").status().code(), StatusCode::kNotFound);
}

TEST(SchemaTest, ConcatRenamesCollisions) {
  Schema a({{"id", ValueType::kInt64}});
  Schema b({{"id", ValueType::kInt64}, {"v", ValueType::kDouble}});
  Schema merged = a.Concat(b);
  EXPECT_EQ(merged.num_columns(), 3u);
  EXPECT_EQ(merged.column(0).name, "id");
  EXPECT_EQ(merged.column(1).name, "r_id");
  EXPECT_EQ(merged.column(2).name, "v");
}

TEST(SchemaDeathTest, RejectsDuplicateColumns) {
  EXPECT_DEATH(Schema({{"x", ValueType::kInt64}, {"x", ValueType::kInt64}}),
               "duplicate column");
}

TEST(TableTest, AppendValidatesArityAndTypes) {
  Table t("t", Schema({{"id", ValueType::kInt64}, {"s", ValueType::kString}}));
  EXPECT_TRUE(t.Append({Value(int64_t{1}), Value(std::string("a"))}).ok());
  EXPECT_TRUE(t.Append({Value(int64_t{2}), Value::Null()}).ok());

  Status wrong_arity = t.Append({Value(int64_t{1})});
  EXPECT_EQ(wrong_arity.code(), StatusCode::kInvalidArgument);

  Status wrong_type = t.Append({Value(1.5), Value(std::string("b"))});
  EXPECT_EQ(wrong_type.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(CatalogTest, AddAndLookup) {
  Catalog catalog;
  Table t("users", Schema({{"id", ValueType::kInt64}}));
  ASSERT_TRUE(t.Append({Value(int64_t{1})}).ok());
  ASSERT_TRUE(t.Append({Value(int64_t{2})}).ok());
  ASSERT_TRUE(catalog.AddTable(std::move(t)).ok());

  ASSERT_TRUE(catalog.GetTable("users").ok());
  EXPECT_EQ((*catalog.GetTable("users"))->num_rows(), 2u);
  EXPECT_EQ(catalog.GetTable("ghosts").status().code(), StatusCode::kNotFound);

  Table dup("users", Schema({{"id", ValueType::kInt64}}));
  EXPECT_EQ(catalog.AddTable(std::move(dup)).code(),
            StatusCode::kAlreadyExists);
}

TEST(CatalogTest, StatsComputedOnRegistration) {
  Catalog catalog;
  Table t("t", Schema({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}}));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.Append({Value(int64_t{i}), Value(int64_t{i % 3})}).ok());
  }
  ASSERT_TRUE(catalog.AddTable(std::move(t)).ok());
  auto stats = catalog.GetStats("t");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->row_count, 10u);
  EXPECT_EQ(stats->distinct_counts[0], 10u);
  EXPECT_EQ(stats->distinct_counts[1], 3u);
}

}  // namespace
}  // namespace db
}  // namespace qdm
