#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "qdm/common/rng.h"
#include "qdm/qdb/quantum_database.h"

namespace qdm {
namespace qdb {
namespace {

std::vector<int64_t> SequentialRecords(size_t n) {
  std::vector<int64_t> records(n);
  for (size_t i = 0; i < n; ++i) records[i] = static_cast<int64_t>(i * 10);
  return records;
}

TEST(QuantumDatabaseTest, CreateValidatesSize) {
  EXPECT_TRUE(QuantumDatabase::Create(SequentialRecords(64)).ok());
  EXPECT_EQ(QuantumDatabase::Create(SequentialRecords(63)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(QuantumDatabase::Create({}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(QuantumDatabaseTest, GroverFindsUniqueKey) {
  Rng rng(5);
  auto db = QuantumDatabase::Create(SequentialRecords(256));
  ASSERT_TRUE(db.ok());
  SearchStats stats = db->GroverSearchEqual(1230, &rng);
  EXPECT_TRUE(stats.found);
  EXPECT_EQ(stats.index, 123u);
  EXPECT_EQ(stats.record, 1230);
  // ~ pi/4 sqrt(256) = 12 coherent queries.
  EXPECT_LE(stats.oracle_queries, 13);
}

TEST(QuantumDatabaseTest, MissingKeyReportsNotFound) {
  Rng rng(7);
  auto db = QuantumDatabase::Create(SequentialRecords(64));
  ASSERT_TRUE(db.ok());
  SearchStats stats = db->GroverSearchEqual(999, &rng);
  EXPECT_FALSE(stats.found);
  EXPECT_EQ(stats.oracle_queries, 0);
}

TEST(QuantumDatabaseTest, QuantumBeatsClassicalOnQueries) {
  Rng rng(11);
  auto db = QuantumDatabase::Create(SequentialRecords(1 << 10));
  ASSERT_TRUE(db.ok());
  double classical_total = 0, quantum_total = 0;
  for (int t = 0; t < 20; ++t) {
    const int64_t key = rng.UniformInt(0, 1023) * 10;
    SearchStats q = db->GroverSearchEqual(key, &rng);
    SearchStats c =
        db->ClassicalSearchWhere([&](int64_t r) { return r == key; }, &rng);
    ASSERT_TRUE(q.found);
    ASSERT_TRUE(c.found);
    quantum_total += static_cast<double>(q.oracle_queries);
    classical_total += static_cast<double>(c.oracle_queries);
  }
  // Classical averages ~N/2 = 512; quantum ~25.
  EXPECT_LT(quantum_total / 20, 30);
  EXPECT_GT(classical_total / 20, 300);
}

TEST(QuantumDatabaseTest, PredicateSearchWithUnknownCount) {
  Rng rng(13);
  auto db = QuantumDatabase::Create(SequentialRecords(256));
  ASSERT_TRUE(db.ok());
  // Records divisible by 160: unknown count from the algorithm's viewpoint.
  SearchStats stats = db->GroverSearchWhere(
      [](int64_t r) { return r % 160 == 0 && r > 0; }, &rng);
  EXPECT_TRUE(stats.found);
  EXPECT_EQ(stats.record % 160, 0);
  EXPECT_GT(stats.record, 0);
}

TEST(QuantumDatabaseTest, CountWhere) {
  auto db = QuantumDatabase::Create(SequentialRecords(128));
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->CountWhere([](int64_t r) { return r % 100 == 0; }), 13u);
  EXPECT_EQ(db->CountWhere([](int64_t) { return false; }), 0u);
}

TEST(SetOpsTest, IntersectionFindsCommonElement) {
  Rng rng(17);
  // A = multiples of 3, B = multiples of 5 in [0, 256): witnesses are
  // multiples of 15.
  SetOpStats stats =
      QuantumIntersectionSearch([](uint64_t x) { return x % 3 == 0; },
                                [](uint64_t x) { return x % 5 == 0; }, 8, &rng);
  EXPECT_TRUE(stats.found);
  EXPECT_EQ(stats.witness % 15, 0u);
  EXPECT_GT(stats.classical_queries, 0);
}

TEST(SetOpsTest, EmptyIntersectionReportsNotFound) {
  Rng rng(19);
  SetOpStats stats =
      QuantumIntersectionSearch([](uint64_t x) { return x % 2 == 0; },
                                [](uint64_t x) { return x % 2 == 1; }, 6, &rng);
  EXPECT_FALSE(stats.found);
}

TEST(SetOpsTest, UnionAndDifference) {
  Rng rng(23);
  SetOpStats u =
      QuantumUnionSearch([](uint64_t x) { return x == 40; },
                         [](uint64_t x) { return x == 41; }, 6, &rng);
  EXPECT_TRUE(u.found);
  EXPECT_TRUE(u.witness == 40 || u.witness == 41);

  SetOpStats d =
      QuantumDifferenceSearch([](uint64_t x) { return x % 4 == 0; },
                              [](uint64_t x) { return x % 8 == 0; }, 6, &rng);
  EXPECT_TRUE(d.found);
  EXPECT_EQ(d.witness % 4, 0u);
  EXPECT_NE(d.witness % 8, 0u);
}

TEST(QuantumJoinTest, FindsMatchingPair) {
  Rng rng(29);
  std::vector<int64_t> left{10, 20, 30, 40, 50, 60, 70, 80};
  std::vector<int64_t> right{55, 65, 30, 75};
  JoinPairStats stats = QuantumJoinSearch(left, right, &rng);
  ASSERT_TRUE(stats.found);
  EXPECT_EQ(left[stats.left_index], right[stats.right_index]);
  EXPECT_EQ(left[stats.left_index], 30);
}

TEST(QuantumJoinTest, AllPairsEnumerated) {
  Rng rng(31);
  std::vector<int64_t> left{1, 2, 3, 2};
  std::vector<int64_t> right{2, 3, 9, 2};
  JoinAllStats stats = QuantumJoinAll(left, right, &rng);
  // Matches: left indices {1,3} x right {0,3} for value 2 (4 pairs) and
  // left 2 x right 1 for value 3 (1 pair).
  EXPECT_EQ(stats.pairs.size(), 5u);
  for (auto [i, j] : stats.pairs) {
    EXPECT_EQ(left[i], right[j]);
  }
}

TEST(QuantumJoinTest, NoMatchesGivesEmptyResult) {
  Rng rng(37);
  JoinAllStats stats = QuantumJoinAll({1, 2}, {3, 4}, &rng);
  EXPECT_TRUE(stats.pairs.empty());
  EXPECT_GT(stats.oracle_queries, 0);
}

TEST(SuperpositionRelationTest, InsertDeleteUpdateLifecycle) {
  SuperpositionRelation rel(4);
  EXPECT_TRUE(rel.Insert(3).ok());
  EXPECT_TRUE(rel.Insert(7).ok());
  EXPECT_EQ(rel.Insert(3).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(rel.Insert(16).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(rel.cardinality(), 2u);

  EXPECT_TRUE(rel.Update(3, 5).ok());
  EXPECT_EQ(rel.Update(3, 6).code(), StatusCode::kNotFound);
  EXPECT_EQ(rel.Update(5, 7).code(), StatusCode::kAlreadyExists);

  EXPECT_TRUE(rel.Delete(5).ok());
  EXPECT_EQ(rel.Delete(5).code(), StatusCode::kNotFound);
  EXPECT_EQ(rel.cardinality(), 1u);
  EXPECT_TRUE(rel.members().count(7));
}

TEST(SuperpositionRelationTest, StateIsUniformOverMembers) {
  SuperpositionRelation rel(3);
  ASSERT_TRUE(rel.Insert(1).ok());
  ASSERT_TRUE(rel.Insert(4).ok());
  ASSERT_TRUE(rel.Insert(6).ok());
  sim::Statevector state = rel.PrepareState();
  const double expected = 1.0 / std::sqrt(3.0);
  for (uint64_t z = 0; z < 8; ++z) {
    const bool member = z == 1 || z == 4 || z == 6;
    EXPECT_NEAR(std::abs(state.amplitude(z)), member ? expected : 0.0, 1e-12)
        << z;
  }
}

TEST(SuperpositionRelationTest, SamplingIsUniform) {
  SuperpositionRelation rel(4);
  for (uint64_t label : {2ull, 8ull, 11ull, 14ull}) {
    ASSERT_TRUE(rel.Insert(label).ok());
  }
  Rng rng(41);
  std::map<uint64_t, int> counts;
  const int kSamples = 40000;
  for (int s = 0; s < kSamples; ++s) {
    auto sample = rel.SampleMember(&rng);
    ASSERT_TRUE(sample.ok());
    ++counts[*sample];
  }
  ASSERT_EQ(counts.size(), 4u);
  for (const auto& [label, count] : counts) {
    EXPECT_NEAR(count / static_cast<double>(kSamples), 0.25, 0.02) << label;
  }
}

TEST(SuperpositionRelationTest, EmptyRelationCannotBeRead) {
  SuperpositionRelation rel(3);
  Rng rng(1);
  EXPECT_EQ(rel.SampleMember(&rng).status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace qdb
}  // namespace qdm
