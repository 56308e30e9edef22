#include <gtest/gtest.h>

#include "qdm/common/rng.h"
#include "qdm/db/executor.h"
#include "qdm/db/join_optimizer.h"
#include "qdm/db/query_parser.h"

namespace qdm {
namespace db {
namespace {

TEST(ParserTest, ParsesSimpleJoin) {
  auto query = ParseConjunctiveQuery(
      "SELECT * FROM orders, customers WHERE orders.cid = customers.id");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->tables, (std::vector<std::string>{"orders", "customers"}));
  ASSERT_EQ(query->predicates.size(), 1u);
  EXPECT_EQ(query->predicates[0].left_table, "orders");
  EXPECT_EQ(query->predicates[0].left_column, "cid");
  EXPECT_EQ(query->predicates[0].right_table, "customers");
  EXPECT_EQ(query->predicates[0].right_column, "id");
}

TEST(ParserTest, KeywordsAreCaseInsensitive) {
  auto query =
      ParseConjunctiveQuery("select * From A, B wHeRe A.x = B.y AnD A.z = B.w");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->predicates.size(), 2u);
}

TEST(ParserTest, NoWhereClauseMeansCrossProduct) {
  auto query = ParseConjunctiveQuery("SELECT * FROM A, B, C");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->tables.size(), 3u);
  EXPECT_TRUE(query->predicates.empty());
}

TEST(ParserTest, RejectsMalformedQueries) {
  EXPECT_FALSE(ParseConjunctiveQuery("").ok());
  EXPECT_FALSE(ParseConjunctiveQuery("SELECT a FROM t").ok());
  EXPECT_FALSE(ParseConjunctiveQuery("SELECT * WHERE A.x = B.y").ok());
  EXPECT_FALSE(ParseConjunctiveQuery("SELECT * FROM A WHERE A.x == B.y").ok());
  EXPECT_FALSE(ParseConjunctiveQuery("SELECT * FROM A, A").ok());
  EXPECT_FALSE(ParseConjunctiveQuery("SELECT * FROM A WHERE x = B.y").ok());
  EXPECT_FALSE(ParseConjunctiveQuery("SELECT * FROM A; DROP TABLE A").ok());
}

class BoundQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Table a("A", Schema({{"id", ValueType::kInt64}, {"k", ValueType::kInt64}}));
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(a.Append({Value(int64_t{i}), Value(int64_t{i % 5})}).ok());
    }
    ASSERT_TRUE(catalog_.AddTable(std::move(a)).ok());

    Table b("B", Schema({{"id", ValueType::kInt64}, {"k", ValueType::kInt64}}));
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(b.Append({Value(int64_t{i}), Value(int64_t{i % 5})}).ok());
    }
    ASSERT_TRUE(catalog_.AddTable(std::move(b)).ok());
  }

  Catalog catalog_;
};

TEST_F(BoundQueryTest, BindsStatisticsAndSelectivity) {
  auto query = ParseConjunctiveQuery("SELECT * FROM A, B WHERE A.k = B.k");
  ASSERT_TRUE(query.ok());
  auto graph = BuildJoinGraph(*query, catalog_);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_relations(), 2);
  EXPECT_DOUBLE_EQ(graph->relations()[0].cardinality, 20);
  EXPECT_DOUBLE_EQ(graph->relations()[1].cardinality, 10);
  // Both k columns have 5 distinct values -> selectivity 1/5.
  EXPECT_DOUBLE_EQ(graph->Selectivity(0, 1), 0.2);
  // Estimated join size 20*10/5 = 40; actual is also 40 by construction.
  EXPECT_DOUBLE_EQ(graph->SubsetCardinality(0b11), 40);
}

TEST_F(BoundQueryTest, ParsedPlanExecutes) {
  auto query = ParseConjunctiveQuery("SELECT * FROM A, B WHERE A.k = B.k");
  ASSERT_TRUE(query.ok());
  auto graph = BuildJoinGraph(*query, catalog_);
  ASSERT_TRUE(graph.ok());
  PlanResult plan = OptimalLeftDeepPlan(*graph);
  auto result = ExecuteJoinTree(plan.tree, *graph, catalog_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 40u);  // 20 * 10 / 5.
}

TEST_F(BoundQueryTest, UnknownTableOrColumnFails) {
  auto q1 = ParseConjunctiveQuery("SELECT * FROM A, Ghost WHERE A.k = Ghost.k");
  ASSERT_TRUE(q1.ok());
  EXPECT_EQ(BuildJoinGraph(*q1, catalog_).status().code(),
            StatusCode::kNotFound);

  auto q2 = ParseConjunctiveQuery("SELECT * FROM A, B WHERE A.nope = B.k");
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(BuildJoinGraph(*q2, catalog_).status().code(),
            StatusCode::kNotFound);
}

TEST_F(BoundQueryTest, PredicateOutsideFromFails) {
  auto query = ParseConjunctiveQuery("SELECT * FROM A WHERE A.k = B.k");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(BuildJoinGraph(*query, catalog_).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace db
}  // namespace qdm
