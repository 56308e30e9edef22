#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "qdm/common/rng.h"
#include "qdm/db/executor.h"
#include "qdm/db/join_optimizer.h"
#include "qdm/db/workload.h"

namespace qdm {
namespace db {
namespace {

/// Hand-built two-table join with known output.
TEST(ExecutorTest, SimpleEquiJoin) {
  Catalog catalog;
  Table a("A", Schema({{"id", ValueType::kInt64}, {"k", ValueType::kInt64}}));
  ASSERT_TRUE(a.Append({Value(int64_t{0}), Value(int64_t{1})}).ok());
  ASSERT_TRUE(a.Append({Value(int64_t{1}), Value(int64_t{2})}).ok());
  ASSERT_TRUE(a.Append({Value(int64_t{2}), Value(int64_t{2})}).ok());
  ASSERT_TRUE(catalog.AddTable(std::move(a)).ok());

  Table b("B", Schema({{"id", ValueType::kInt64}, {"k", ValueType::kInt64}}));
  ASSERT_TRUE(b.Append({Value(int64_t{0}), Value(int64_t{2})}).ok());
  ASSERT_TRUE(b.Append({Value(int64_t{1}), Value(int64_t{3})}).ok());
  ASSERT_TRUE(catalog.AddTable(std::move(b)).ok());

  JoinGraph g;
  g.AddRelation("A", 3);
  g.AddRelation("B", 2);
  g.AddEdge(0, 1, 0.5, "k", "k");

  auto result = ExecuteJoinTree(MakeJoin(MakeLeaf(0), MakeLeaf(1)), g, catalog);
  ASSERT_TRUE(result.ok());
  // A rows with k=2 are ids {1,2}; B row with k=2 is id 0 -> 2 output rows.
  EXPECT_EQ(result->num_rows(), 2u);
  ASSERT_TRUE(result->schema().ColumnIndex("A.k").ok());
  ASSERT_TRUE(result->schema().ColumnIndex("B.k").ok());
  for (const Row& row : result->rows()) {
    EXPECT_EQ(row[*result->schema().ColumnIndex("A.k")],
              row[*result->schema().ColumnIndex("B.k")]);
  }
}

TEST(ExecutorTest, CrossProductWhenNoEdge) {
  Catalog catalog;
  Table a("A", Schema({{"x", ValueType::kInt64}}));
  ASSERT_TRUE(a.Append({Value(int64_t{1})}).ok());
  ASSERT_TRUE(a.Append({Value(int64_t{2})}).ok());
  ASSERT_TRUE(catalog.AddTable(std::move(a)).ok());
  Table b("B", Schema({{"y", ValueType::kInt64}}));
  ASSERT_TRUE(b.Append({Value(int64_t{7})}).ok());
  ASSERT_TRUE(b.Append({Value(int64_t{8})}).ok());
  ASSERT_TRUE(b.Append({Value(int64_t{9})}).ok());
  ASSERT_TRUE(catalog.AddTable(std::move(b)).ok());

  JoinGraph g;
  g.AddRelation("A", 2);
  g.AddRelation("B", 3);

  auto result = ExecuteJoinTree(MakeJoin(MakeLeaf(0), MakeLeaf(1)), g, catalog);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 6u);
}

TEST(ExecutorTest, UnboundEdgeIsExecutionError) {
  Catalog catalog;
  Table a("A", Schema({{"x", ValueType::kInt64}}));
  ASSERT_TRUE(catalog.AddTable(std::move(a)).ok());
  Table b("B", Schema({{"y", ValueType::kInt64}}));
  ASSERT_TRUE(catalog.AddTable(std::move(b)).ok());

  JoinGraph g;
  g.AddRelation("A", 1);
  g.AddRelation("B", 1);
  g.AddEdge(0, 1, 0.5);  // No column binding.

  auto result = ExecuteJoinTree(MakeJoin(MakeLeaf(0), MakeLeaf(1)), g, catalog);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ExecutorTest, AllJoinOrdersProduceTheSameRelation) {
  // The core optimizer-correctness invariant: plan choice changes cost, not
  // semantics.
  Rng rng(3);
  for (QueryShape shape :
       {QueryShape::kChain, QueryShape::kStar, QueryShape::kCycle}) {
    GeneratedWorkload w = GenerateJoinWorkload(
        shape, 4, WorkloadOptions{.min_rows = 10, .max_rows = 40}, &rng);

    std::set<uint64_t> fingerprints;
    size_t rows = 0;
    std::vector<int> order{0, 1, 2, 3};
    int plans = 0;
    do {
      auto result =
          ExecuteJoinTree(LeftDeepFromPermutation(order), w.graph, w.catalog);
      ASSERT_TRUE(result.ok());
      fingerprints.insert(TableFingerprint(*result));
      rows = result->num_rows();
      ++plans;
    } while (std::next_permutation(order.begin(), order.end()) && plans < 8);

    EXPECT_EQ(fingerprints.size(), 1u)
        << QueryShapeToString(shape) << ": plans disagree on output (" << rows
        << " rows)";
  }
}

TEST(ExecutorTest, BushyPlanMatchesLeftDeepOutput) {
  Rng rng(9);
  GeneratedWorkload w = GenerateJoinWorkload(
      QueryShape::kChain, 4, WorkloadOptions{.min_rows = 15, .max_rows = 30},
      &rng);
  auto left_deep = ExecuteJoinTree(LeftDeepFromPermutation({0, 1, 2, 3}),
                                   w.graph, w.catalog);
  auto bushy = ExecuteJoinTree(MakeJoin(MakeJoin(MakeLeaf(0), MakeLeaf(1)),
                                        MakeJoin(MakeLeaf(2), MakeLeaf(3))),
                               w.graph, w.catalog);
  ASSERT_TRUE(left_deep.ok());
  ASSERT_TRUE(bushy.ok());
  EXPECT_EQ(left_deep->num_rows(), bushy->num_rows());
  EXPECT_EQ(TableFingerprint(*left_deep), TableFingerprint(*bushy));
}

TEST(EstimatorTest, EstimatesTrackActualJoinSizes) {
  // With uniform independent join columns the estimator should be within a
  // small factor of the truth on two-way joins.
  Rng rng(21);
  double log_error_total = 0;
  int joins = 0;
  for (int trial = 0; trial < 10; ++trial) {
    GeneratedWorkload w = GenerateJoinWorkload(
        QueryShape::kChain, 3, WorkloadOptions{.min_rows = 50, .max_rows = 200},
        &rng);
    for (const JoinEdge& e : w.graph.edges()) {
      auto result = ExecuteJoinTree(MakeJoin(MakeLeaf(e.a), MakeLeaf(e.b)),
                                    w.graph, w.catalog);
      ASSERT_TRUE(result.ok());
      const double estimated = w.graph.SubsetCardinality((uint32_t{1} << e.a) |
                                                         (uint32_t{1} << e.b));
      const double actual = std::max<size_t>(result->num_rows(), 1);
      log_error_total += std::abs(std::log(estimated / actual));
      ++joins;
    }
  }
  // Average multiplicative error under a factor of ~2.
  EXPECT_LT(log_error_total / joins, std::log(2.0));
}

TEST(FingerprintTest, InsensitiveToRowAndColumnOrder) {
  Table a("a", Schema({{"x", ValueType::kInt64}, {"y", ValueType::kString}}));
  ASSERT_TRUE(a.Append({Value(int64_t{1}), Value(std::string("p"))}).ok());
  ASSERT_TRUE(a.Append({Value(int64_t{2}), Value(std::string("q"))}).ok());

  Table b("b", Schema({{"x", ValueType::kInt64}, {"y", ValueType::kString}}));
  ASSERT_TRUE(b.Append({Value(int64_t{2}), Value(std::string("q"))}).ok());
  ASSERT_TRUE(b.Append({Value(int64_t{1}), Value(std::string("p"))}).ok());

  EXPECT_EQ(TableFingerprint(a), TableFingerprint(b));

  Table c("c", Schema({{"y", ValueType::kString}, {"x", ValueType::kInt64}}));
  ASSERT_TRUE(c.Append({Value(std::string("p")), Value(int64_t{1})}).ok());
  ASSERT_TRUE(c.Append({Value(std::string("q")), Value(int64_t{2})}).ok());
  EXPECT_EQ(TableFingerprint(a), TableFingerprint(c));

  Table d("d", Schema({{"x", ValueType::kInt64}, {"y", ValueType::kString}}));
  ASSERT_TRUE(d.Append({Value(int64_t{3}), Value(std::string("p"))}).ok());
  ASSERT_TRUE(d.Append({Value(int64_t{2}), Value(std::string("q"))}).ok());
  EXPECT_NE(TableFingerprint(a), TableFingerprint(d));
}

}  // namespace
}  // namespace db
}  // namespace qdm
