#include <gtest/gtest.h>

#include <algorithm>

#include "qdm/common/rng.h"
#include "qdm/db/join_graph.h"
#include "qdm/db/join_optimizer.h"
#include "qdm/db/join_tree.h"

namespace qdm {
namespace db {
namespace {

JoinGraph TextbookChain() {
  // R0(100) - R1(1000) - R2(10): classic example where order matters.
  JoinGraph g;
  g.AddRelation("R0", 100);
  g.AddRelation("R1", 1000);
  g.AddRelation("R2", 10);
  g.AddEdge(0, 1, 0.01);
  g.AddEdge(1, 2, 0.005);
  return g;
}

TEST(JoinGraphTest, SubsetCardinality) {
  JoinGraph g = TextbookChain();
  EXPECT_DOUBLE_EQ(g.SubsetCardinality(0b011), 100 * 1000 * 0.01);
  EXPECT_DOUBLE_EQ(g.SubsetCardinality(0b110), 1000 * 10 * 0.005);
  // R0 x R2: no edge -> cross product.
  EXPECT_DOUBLE_EQ(g.SubsetCardinality(0b101), 100 * 10);
  EXPECT_DOUBLE_EQ(g.SubsetCardinality(0b111), 100 * 1000 * 10 * 0.01 * 0.005);
}

TEST(JoinGraphTest, Connectivity) {
  JoinGraph g = TextbookChain();
  EXPECT_TRUE(g.IsConnected(0b011));
  EXPECT_TRUE(g.IsConnected(0b111));
  EXPECT_FALSE(g.IsConnected(0b101));  // R0, R2 not directly joined.
  EXPECT_TRUE(g.IsConnected(0b001));
}

TEST(JoinGraphTest, TopologiesHaveExpectedEdgeCounts) {
  Rng rng(1);
  EXPECT_EQ(JoinGraph::RandomChain(6, &rng).edges().size(), 5u);
  EXPECT_EQ(JoinGraph::RandomStar(6, &rng).edges().size(), 5u);
  EXPECT_EQ(JoinGraph::RandomCycle(6, &rng).edges().size(), 6u);
  EXPECT_EQ(JoinGraph::RandomClique(6, &rng).edges().size(), 15u);
}

TEST(JoinTreeTest, MaskAndSizeAndShape) {
  auto tree = MakeJoin(MakeJoin(MakeLeaf(0), MakeLeaf(2)), MakeLeaf(1));
  EXPECT_EQ(TreeMask(tree), 0b111u);
  EXPECT_EQ(TreeSize(tree), 3);
  EXPECT_TRUE(IsLeftDeep(tree));

  auto bushy = MakeJoin(MakeJoin(MakeLeaf(0), MakeLeaf(1)),
                        MakeJoin(MakeLeaf(2), MakeLeaf(3)));
  EXPECT_FALSE(IsLeftDeep(bushy));
  EXPECT_EQ(TreeSize(bushy), 4);
}

TEST(JoinTreeTest, CoutCostSumsIntermediates) {
  JoinGraph g = TextbookChain();
  // ((R0 J R1) J R2): cost = |R0 J R1| + |full| = 1000 + 50.
  auto plan = LeftDeepFromPermutation({0, 1, 2});
  EXPECT_DOUBLE_EQ(CoutCost(plan, g), 1000 + 50);
  // ((R2 J R1) J R0): cost = 50 + 50.
  auto better = LeftDeepFromPermutation({2, 1, 0});
  EXPECT_DOUBLE_EQ(CoutCost(better, g), 50 + 50);
}

TEST(JoinTreeTest, PermutationCostMatchesTreeCost) {
  Rng rng(5);
  JoinGraph g = JoinGraph::RandomClique(6, &rng);
  std::vector<int> order{3, 0, 5, 1, 4, 2};
  EXPECT_NEAR(PermutationCost(order, g),
              CoutCost(LeftDeepFromPermutation(order), g), 1e-6);
}

TEST(OptimalLeftDeepTest, MatchesExhaustivePermutationSearch) {
  Rng rng(7);
  for (QueryShape shape : {QueryShape::kChain, QueryShape::kStar,
                           QueryShape::kCycle, QueryShape::kClique}) {
    JoinGraph g = MakeRandomQuery(shape, 6, &rng);
    PlanResult dp = OptimalLeftDeepPlan(g);
    EXPECT_TRUE(IsLeftDeep(dp.tree));

    std::vector<int> order{0, 1, 2, 3, 4, 5};
    double best = 1e300;
    do {
      best = std::min(best, PermutationCost(order, g));
    } while (std::next_permutation(order.begin(), order.end()));
    EXPECT_NEAR(dp.cost, best, best * 1e-9) << QueryShapeToString(shape);
  }
}

TEST(OptimalBushyTest, NeverWorseThanLeftDeep) {
  Rng rng(11);
  for (int trial = 0; trial < 12; ++trial) {
    JoinGraph g = MakeRandomQuery(static_cast<QueryShape>(trial % 4), 7, &rng);
    PlanResult bushy = OptimalBushyPlan(g);
    PlanResult left_deep = OptimalLeftDeepPlan(g);
    EXPECT_LE(bushy.cost, left_deep.cost * (1 + 1e-9));
    EXPECT_EQ(TreeMask(bushy.tree), (uint32_t{1} << 7) - 1);
    // Reported cost must equal the tree's recomputed cost.
    EXPECT_NEAR(bushy.cost, CoutCost(bushy.tree, g), bushy.cost * 1e-9);
  }
}

TEST(OptimalBushyTest, BushyBeatsLeftDeepOnDumbbellChain) {
  // The motivating case for bushy optimization [25, 26]: a chain with highly
  // selective joins at both ends. Bushy reduces both big relations before
  // the final join; every left-deep order must carry a huge intermediate.
  JoinGraph g;
  g.AddRelation("R0", 1000);
  g.AddRelation("R1", 1000);
  g.AddRelation("R2", 1000);
  g.AddRelation("R3", 1000);
  g.AddEdge(0, 1, 1e-6);
  g.AddEdge(1, 2, 1.0);
  g.AddEdge(2, 3, 1e-6);

  PlanResult bushy = OptimalBushyPlan(g);
  PlanResult left_deep = OptimalLeftDeepPlan(g);
  EXPECT_DOUBLE_EQ(bushy.cost, 3.0);         // 1 + 1 + 1.
  EXPECT_DOUBLE_EQ(left_deep.cost, 1002.0);  // 1 + 1000 + 1.
  EXPECT_LT(bushy.cost, left_deep.cost);
  EXPECT_FALSE(IsLeftDeep(bushy.tree));
}

TEST(GreedyTest, WithinReasonOfOptimal) {
  Rng rng(17);
  double total_ratio = 0;
  const int kTrials = 20;
  for (int t = 0; t < kTrials; ++t) {
    JoinGraph g = MakeRandomQuery(static_cast<QueryShape>(t % 4), 7, &rng);
    PlanResult greedy = GreedyOperatorOrdering(g);
    PlanResult optimal = OptimalBushyPlan(g);
    EXPECT_GE(greedy.cost, optimal.cost * (1 - 1e-9));
    total_ratio += greedy.cost / optimal.cost;
  }
  EXPECT_LT(total_ratio / kTrials, 10.0)
      << "GOO should stay within an order of magnitude of optimal on average";
}

TEST(RandomPlanTest, WorseThanOptimalOnAverage) {
  Rng rng(19);
  JoinGraph g = JoinGraph::RandomChain(8, &rng);
  PlanResult optimal = OptimalLeftDeepPlan(g);
  double random_total = 0;
  for (int t = 0; t < 30; ++t) {
    random_total += RandomLeftDeepPlan(g, &rng).cost;
  }
  EXPECT_GT(random_total / 30, optimal.cost);
}

TEST(IterativeImprovementTest, ImprovesOverRandom) {
  Rng rng(23);
  JoinGraph g = JoinGraph::RandomClique(8, &rng);
  Rng rng_a(1), rng_b(1);
  double random_cost = RandomLeftDeepPlan(g, &rng_a).cost;
  PlanResult ii = IterativeImprovementPlan(g, 2000, &rng_b);
  EXPECT_LE(ii.cost, random_cost);
  // Should get close to the left-deep optimum on this size.
  PlanResult optimal = OptimalLeftDeepPlan(g);
  EXPECT_LT(ii.cost, optimal.cost * 5);
}

}  // namespace
}  // namespace db
}  // namespace qdm
