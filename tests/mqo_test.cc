#include <gtest/gtest.h>

#include "qdm/anneal/exact_solver.h"
#include "qdm/anneal/solver.h"
#include "qdm/common/rng.h"
#include "qdm/qopt/mqo.h"

namespace qdm {
namespace qopt {
namespace {

MqoProblem TinyProblem() {
  // 2 queries x 2 plans. Costs: q0 {10, 12}, q1 {20, 14}. One sharing:
  // (q0 plan 1) + (q1 plan 0) saves 15 -> total 12 + 20 - 15 = 17 beats
  // the independent optimum 10 + 14 = 24.
  MqoProblem p;
  p.plan_costs = {{10, 12}, {20, 14}};
  p.savings.push_back(MqoProblem::Sharing{0, 1, 1, 0, 15});
  return p;
}

TEST(MqoProblemTest, SelectionCostAppliesSavings) {
  MqoProblem p = TinyProblem();
  EXPECT_DOUBLE_EQ(p.SelectionCost({0, 0}), 30);
  EXPECT_DOUBLE_EQ(p.SelectionCost({0, 1}), 24);
  EXPECT_DOUBLE_EQ(p.SelectionCost({1, 0}), 17);  // Sharing triggers.
  EXPECT_DOUBLE_EQ(p.SelectionCost({1, 1}), 26);
}

TEST(MqoProblemTest, VarIndexIsDense) {
  MqoProblem p = TinyProblem();
  EXPECT_EQ(p.num_variables(), 4);
  EXPECT_EQ(p.VarIndex(0, 0), 0);
  EXPECT_EQ(p.VarIndex(0, 1), 1);
  EXPECT_EQ(p.VarIndex(1, 0), 2);
  EXPECT_EQ(p.VarIndex(1, 1), 3);
}

TEST(MqoQuboTest, FeasibleEnergiesMatchSelectionCost) {
  MqoProblem p = TinyProblem();
  anneal::Qubo qubo = MqoToQubo(p);
  for (int p0 = 0; p0 < 2; ++p0) {
    for (int p1 = 0; p1 < 2; ++p1) {
      anneal::Assignment x(4, 0);
      x[p.VarIndex(0, p0)] = 1;
      x[p.VarIndex(1, p1)] = 1;
      EXPECT_NEAR(qubo.Energy(x), p.SelectionCost({p0, p1}), 1e-9);
    }
  }
}

TEST(MqoQuboTest, InfeasibleAssignmentsCostMore) {
  MqoProblem p = TinyProblem();
  anneal::Qubo qubo = MqoToQubo(p);
  const double best_feasible = ExhaustiveMqo(p).cost;
  // No plan for q1.
  anneal::Assignment none(4, 0);
  none[p.VarIndex(0, 0)] = 1;
  EXPECT_GT(qubo.Energy(none), best_feasible);
  // Two plans for q0.
  anneal::Assignment both(4, 0);
  both[p.VarIndex(0, 0)] = both[p.VarIndex(0, 1)] = 1;
  both[p.VarIndex(1, 0)] = 1;
  EXPECT_GT(qubo.Energy(both), best_feasible);
}

TEST(MqoQuboTest, GroundStateIsOptimalSelection) {
  Rng rng(3);
  for (int trial = 0; trial < 8; ++trial) {
    MqoProblem p = GenerateMqoProblem(4, 3, 0.3, &rng);
    anneal::Qubo qubo = MqoToQubo(p);
    anneal::Sample ground = anneal::ExactSolver::Solve(qubo);
    MqoSolution decoded = DecodeMqoSample(p, ground.assignment);
    ASSERT_TRUE(decoded.feasible) << "ground state must satisfy constraints";
    MqoSolution optimal = ExhaustiveMqo(p);
    EXPECT_NEAR(decoded.cost, optimal.cost, 1e-9);
  }
}

TEST(MqoDecodeTest, RejectsBrokenAssignments) {
  MqoProblem p = TinyProblem();
  anneal::Assignment empty(4, 0);
  EXPECT_FALSE(DecodeMqoSample(p, empty).feasible);
  anneal::Assignment doubled(4, 1);
  EXPECT_FALSE(DecodeMqoSample(p, doubled).feasible);
}

TEST(MqoBaselinesTest, GreedyMissesCoordinatedSharingWin) {
  // Reaching the sharing optimum {plan 1, plan 0} = 17 requires switching
  // BOTH queries at once; single-plan hill climbing from the independent
  // optimum {0, 1} = 24 cannot get there. This is exactly the coordination
  // structure that makes MQO NP-hard and motivates global solvers [20].
  MqoProblem p = TinyProblem();
  MqoSolution greedy = GreedyMqo(p);
  EXPECT_TRUE(greedy.feasible);
  EXPECT_DOUBLE_EQ(greedy.cost, 24);
  EXPECT_DOUBLE_EQ(ExhaustiveMqo(p).cost, 17);
}

TEST(MqoBaselinesTest, LocalSearchMatchesExhaustiveOnSmall) {
  Rng rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    MqoProblem p = GenerateMqoProblem(5, 3, 0.25, &rng);
    MqoSolution exhaustive = ExhaustiveMqo(p);
    MqoSolution local = LocalSearchMqo(p, 4000, &rng);
    EXPECT_LE(exhaustive.cost, local.cost + 1e-9);
    EXPECT_NEAR(local.cost, exhaustive.cost,
                std::abs(exhaustive.cost) * 0.05 + 1e-9)
        << "local search should be near-optimal on 5x3 instances";
  }
}

TEST(MqoEndToEndTest, AnnealerSolvesGeneratedInstances) {
  // The MQO landscape has penalty barriers between feasible selections
  // (switching plans is a 2-flip move), so the anneal needs honest effort:
  // 1000 sweeps x 50 reads solves these instances reliably.
  Rng rng(11);
  anneal::SolverOptions options;
  options.num_reads = 50;
  options.num_sweeps = 1000;
  options.rng = &rng;
  int solved = 0;
  for (int trial = 0; trial < 5; ++trial) {
    MqoProblem p = GenerateMqoProblem(5, 3, 0.3, &rng);
    Result<MqoSolution> decoded = SolveMqo(p, "simulated_annealing", options);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    if (decoded->feasible && decoded->cost <= ExhaustiveMqo(p).cost + 1e-9) {
      ++solved;
    }
  }
  EXPECT_GE(solved, 4);
}

TEST(MqoEndToEndTest, QaoaSolvesTinyInstance) {
  // The gate-based arm of Figure 2 on the running MQO example.
  Rng rng(13);
  MqoProblem p = TinyProblem();
  anneal::SolverOptions options;
  options.num_reads = 60;
  options.layers = 3;
  options.restarts = 4;
  options.rng = &rng;
  Result<MqoSolution> decoded = SolveMqo(p, "qaoa", options);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_TRUE(decoded->feasible);
  EXPECT_DOUBLE_EQ(decoded->cost, 17);
}

TEST(MqoGeneratorTest, SavingsNeverExceedPlanCosts) {
  Rng rng(17);
  MqoProblem p = GenerateMqoProblem(6, 4, 0.5, &rng);
  for (const auto& s : p.savings) {
    EXPECT_LT(s.saving, p.plan_costs[s.query_a][s.plan_a]);
    EXPECT_LT(s.saving, p.plan_costs[s.query_b][s.plan_b]);
    EXPECT_GT(s.saving, 0);
  }
}

}  // namespace
}  // namespace qopt
}  // namespace qdm
