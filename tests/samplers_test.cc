#include <gtest/gtest.h>

#include <memory>

#include "qdm/anneal/exact_solver.h"
#include "qdm/anneal/parallel_tempering.h"
#include "qdm/anneal/qubo.h"
#include "qdm/anneal/simulated_annealing.h"
#include "qdm/anneal/tabu_search.h"
#include "qdm/common/rng.h"
#include "qdm/common/status.h"

namespace qdm {
namespace anneal {
namespace {

/// A frustrated random QUBO with known-by-enumeration optimum.
Qubo RandomQubo(int n, double density, Rng* rng) {
  Qubo q(n);
  for (int i = 0; i < n; ++i) q.AddLinear(i, rng->Uniform(-1, 1));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng->Bernoulli(density)) q.AddQuadratic(i, j, rng->Uniform(-1, 1));
    }
  }
  return q;
}

TEST(ExactSolverTest, SolvesTinyProblemByInspection) {
  // Minimum of E = x0 - 2 x1 + 3 x0 x1 is x = (0, 1) with E = -2.
  Qubo q(2);
  q.AddLinear(0, 1.0);
  q.AddLinear(1, -2.0);
  q.AddQuadratic(0, 1, 3.0);
  Sample best = ExactSolver::Solve(q);
  EXPECT_DOUBLE_EQ(best.energy, -2.0);
  EXPECT_EQ(best.assignment, (Assignment{0, 1}));
}

TEST(ExactSolverTest, GrayCodeMatchesBruteForce) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    Qubo q = RandomQubo(8, 0.5, &rng);
    Sample fast = ExactSolver::Solve(q);
    // Plain brute force.
    double best = 1e100;
    for (uint64_t mask = 0; mask < 256; ++mask) {
      Assignment x(8);
      for (int i = 0; i < 8; ++i) x[i] = (mask >> i) & 1;
      best = std::min(best, q.Energy(x));
    }
    EXPECT_NEAR(fast.energy, best, 1e-9);
    EXPECT_NEAR(q.Energy(fast.assignment), fast.energy, 1e-9);
  }
}

/// `num_reads` samples drawn from `rng`, every other knob at its default.
SolverOptions Reads(int num_reads, Rng* rng) {
  SolverOptions options;
  options.num_reads = num_reads;
  options.rng = rng;
  return options;
}

class HeuristicSamplerTest : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<QuboSolver> MakeSampler() {
    switch (GetParam()) {
      case 0:
        return std::make_unique<SimulatedAnnealer>();
      case 1:
        return std::make_unique<ParallelTempering>();
      default:
        return std::make_unique<TabuSearch>();
    }
  }
};

TEST_P(HeuristicSamplerTest, ReachesExactOptimumOnSmallProblems) {
  Rng rng(17);
  auto sampler = MakeSampler();
  int solved = 0;
  const int kTrials = 10;
  for (int trial = 0; trial < kTrials; ++trial) {
    Qubo q = RandomQubo(12, 0.4, &rng);
    const double optimum = ExactSolver::Solve(q).energy;
    const Result<SampleSet> set = sampler->Solve(q, Reads(10, &rng));
    ASSERT_TRUE(set.ok()) << set.status();
    if (set->best().energy <= optimum + 1e-9) ++solved;
    // Reported energies must be self-consistent.
    EXPECT_NEAR(q.Energy(set->best().assignment), set->best().energy, 1e-9);
  }
  EXPECT_GE(solved, 9) << sampler->name()
                       << " should solve nearly all 12-var instances";
}

TEST_P(HeuristicSamplerTest, SampleSetSortedByEnergy) {
  Rng rng(23);
  auto sampler = MakeSampler();
  Qubo q = RandomQubo(10, 0.5, &rng);
  const Result<SampleSet> set = sampler->Solve(q, Reads(8, &rng));
  ASSERT_TRUE(set.ok()) << set.status();
  ASSERT_EQ(set->size(), 8u);
  for (size_t i = 1; i < set->size(); ++i) {
    EXPECT_LE(set->samples()[i - 1].energy, set->samples()[i].energy);
  }
}

INSTANTIATE_TEST_SUITE_P(AllHeuristics, HeuristicSamplerTest,
                         ::testing::Values(0, 1, 2));

TEST(SimulatedAnnealerTest, MoreSweepsImproveSuccessRate) {
  Rng rng_problem(31);
  // A moderately hard frustrated instance.
  Qubo q = RandomQubo(18, 0.6, &rng_problem);
  const double optimum = ExactSolver::Solve(q).energy;

  auto success_rate = [&](int sweeps) {
    Rng rng(7);
    SolverOptions options = Reads(50, &rng);
    options.num_sweeps = sweeps;
    const Result<SampleSet> set = SimulatedAnnealer().Solve(q, options);
    EXPECT_TRUE(set.ok()) << set.status();
    return set->SuccessRate(optimum);
  };

  const double quick = success_rate(2);
  const double slow = success_rate(300);
  EXPECT_GT(slow, quick);
  EXPECT_GT(slow, 0.5);
}

TEST(SampleSetTest, SuccessRateCountsWithinTolerance) {
  SampleSet set;
  set.Add(Sample{{}, 1.0, 0});
  set.Add(Sample{{}, 1.0, 0});
  set.Add(Sample{{}, 2.0, 0});
  set.Add(Sample{{}, 5.0, 0});
  EXPECT_DOUBLE_EQ(set.SuccessRate(1.0), 0.5);
  EXPECT_DOUBLE_EQ(set.SuccessRate(2.0), 0.75);
  EXPECT_DOUBLE_EQ(set.best().energy, 1.0);
}

TEST(ExactSolverDeathTest, RefusesHugeProblems) {
  Qubo q(31);
  EXPECT_DEATH(ExactSolver::Solve(q), "2\\^n");
}

}  // namespace
}  // namespace anneal
}  // namespace qdm
