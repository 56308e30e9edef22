#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "qdm/algo/grover_min_sampler.h"
#include "qdm/algo/optimizers.h"
#include "qdm/algo/qaoa.h"
#include "qdm/algo/vqe.h"
#include "qdm/anneal/exact_solver.h"
#include "qdm/common/rng.h"
#include "qdm/common/status.h"

namespace qdm {
namespace algo {
namespace {

anneal::Qubo SmallFrustratedQubo() {
  // 4-variable max-cut-like instance; optimum known via ExactSolver.
  anneal::Qubo q(4);
  q.AddLinear(0, 1.0);
  q.AddLinear(2, -0.5);
  q.AddQuadratic(0, 1, 2.0);
  q.AddQuadratic(1, 2, 2.0);
  q.AddQuadratic(2, 3, 2.0);
  q.AddQuadratic(3, 0, 2.0);
  q.AddQuadratic(0, 2, -1.0);
  return q;
}

TEST(BuildDiagonalTest, MatchesEnergyForEveryState) {
  anneal::Qubo q = SmallFrustratedQubo();
  std::vector<double> diag = BuildDiagonal(q);
  ASSERT_EQ(diag.size(), 16u);
  for (uint64_t z = 0; z < 16; ++z) {
    anneal::Assignment x(4);
    for (int i = 0; i < 4; ++i) x[i] = (z >> i) & 1;
    EXPECT_NEAR(diag[z], q.Energy(x), 1e-12) << "z=" << z;
  }
}

TEST(OptimizerTest, NelderMeadMinimizesQuadratic) {
  NelderMead nm;
  Rng rng(1);
  auto result = nm.Minimize(
      [](const std::vector<double>& x) {
        return (x[0] - 1) * (x[0] - 1) + 2 * (x[1] + 0.5) * (x[1] + 0.5);
      },
      {0.0, 0.0}, &rng);
  EXPECT_NEAR(result.parameters[0], 1.0, 1e-3);
  EXPECT_NEAR(result.parameters[1], -0.5, 1e-3);
  EXPECT_LT(result.value, 1e-5);
}

TEST(OptimizerTest, SpsaReducesNoisyObjective) {
  Spsa spsa;
  Rng rng(2);
  Rng noise(3);
  auto objective = [&](const std::vector<double>& x) {
    return x[0] * x[0] + x[1] * x[1] + 0.01 * noise.Gaussian();
  };
  auto result = spsa.Minimize(objective, {2.0, -2.0}, &rng);
  EXPECT_LT(result.parameters[0] * result.parameters[0] +
                result.parameters[1] * result.parameters[1],
            1.0);
}

TEST(OptimizerTest, CoordinateDescentHandlesSeparableObjective) {
  CoordinateDescent cd;
  Rng rng(4);
  auto result = cd.Minimize(
      [](const std::vector<double>& x) {
        return std::abs(x[0] - 0.3) + std::abs(x[1] - 0.7);
      },
      {0.0, 0.0}, &rng);
  EXPECT_NEAR(result.parameters[0], 0.3, 0.05);
  EXPECT_NEAR(result.parameters[1], 0.7, 0.05);
}

TEST(QaoaTest, GateCircuitMatchesFastEvolver) {
  anneal::Qubo q = SmallFrustratedQubo();
  Qaoa qaoa(q, 2);
  const std::vector<double> params{0.4, 0.9, 0.3, 0.7};

  sim::Statevector fast = qaoa.StateForParameters(params);
  sim::Statevector gate = sim::RunCircuit(qaoa.BuildCircuit(params));
  // Equal up to global phase (the dropped constant term).
  EXPECT_NEAR(gate.FidelityWith(fast), 1.0, 1e-9);
}

TEST(QaoaTest, ExpectationAtZeroAnglesIsUniformAverage) {
  anneal::Qubo q = SmallFrustratedQubo();
  Qaoa qaoa(q, 1);
  std::vector<double> diag = BuildDiagonal(q);
  double mean = 0;
  for (double e : diag) mean += e;
  mean /= diag.size();
  EXPECT_NEAR(qaoa.Expectation({0.0, 0.0}), mean, 1e-9);
}

TEST(QaoaTest, OptimizationBeatsRandomGuessing) {
  anneal::Qubo q = SmallFrustratedQubo();
  Qaoa qaoa(q, 2);
  Rng rng(5);
  CoordinateDescent optimizer;
  auto result = qaoa.Optimize(&optimizer, 3, &rng);

  std::vector<double> diag = BuildDiagonal(q);
  double mean = 0;
  for (double e : diag) mean += e;
  mean /= diag.size();
  EXPECT_LT(result.value, mean - 0.5)
      << "optimized QAOA energy should be well below the uniform average";
}

/// `num_reads` samples drawn from `rng`; `layers` and `restarts` 0 keep the
/// backend's defaults.
anneal::SolverOptions Reads(int num_reads, Rng* rng, int layers = 0,
                            int restarts = 0) {
  anneal::SolverOptions options;
  options.num_reads = num_reads;
  options.rng = rng;
  options.layers = layers;
  options.restarts = restarts;
  return options;
}

TEST(QaoaSamplerTest, ReachesOptimumOnSmallInstances) {
  anneal::Qubo q = SmallFrustratedQubo();
  const double optimum = anneal::ExactSolver::Solve(q).energy;
  Rng rng(6);
  const Result<anneal::SampleSet> set =
      QaoaSampler().Solve(q, Reads(100, &rng, /*layers=*/3, /*restarts=*/4));
  ASSERT_TRUE(set.ok()) << set.status();
  EXPECT_NEAR(set->best().energy, optimum, 1e-9);
  // A meaningfully amplified fraction of reads should hit the optimum.
  EXPECT_GT(set->SuccessRate(optimum), 0.2);
}

TEST(VqeTest, AnsatzHasExpectedParameterCount) {
  anneal::Qubo q = SmallFrustratedQubo();
  Vqe vqe(q, 3);
  EXPECT_EQ(vqe.num_parameters(), 4 * 4);
  EXPECT_EQ(vqe.ansatz().num_parameters(), 16);
}

TEST(VqeTest, ZeroAnglesGiveZeroState) {
  anneal::Qubo q = SmallFrustratedQubo();
  Vqe vqe(q, 1);
  std::vector<double> zeros(vqe.num_parameters(), 0.0);
  sim::Statevector sv = vqe.StateForParameters(zeros);
  EXPECT_NEAR(std::norm(sv.amplitude(0)), 1.0, 1e-12);
  EXPECT_NEAR(vqe.Expectation(zeros), q.Energy({0, 0, 0, 0}), 1e-12);
}

TEST(VqeTest, OptimizationFindsGroundState) {
  anneal::Qubo q = SmallFrustratedQubo();
  const double optimum = anneal::ExactSolver::Solve(q).energy;
  Vqe vqe(q, 2);
  NelderMead optimizer;
  Rng rng(7);
  auto result = vqe.Optimize(&optimizer, 4, &rng);
  // The RY/CZ ansatz can express the (real-amplitude) ground state.
  EXPECT_NEAR(result.value, optimum, 0.15);
}

TEST(VqeSamplerTest, BestSampleIsOptimal) {
  anneal::Qubo q = SmallFrustratedQubo();
  const double optimum = anneal::ExactSolver::Solve(q).energy;
  Rng rng(8);
  const Result<anneal::SampleSet> set =
      VqeSampler().Solve(q, Reads(60, &rng, /*layers=*/2, /*restarts=*/4));
  ASSERT_TRUE(set.ok()) << set.status();
  EXPECT_NEAR(set->best().energy, optimum, 1e-9);
}

TEST(GroverMinSamplerTest, FindsQuboOptimum) {
  anneal::Qubo q = SmallFrustratedQubo();
  const double optimum = anneal::ExactSolver::Solve(q).energy;
  GroverMinSampler sampler;
  Rng rng(9);
  const Result<anneal::SampleSet> set = sampler.Solve(q, Reads(5, &rng));
  ASSERT_TRUE(set.ok()) << set.status();
  EXPECT_NEAR(set->best().energy, optimum, 1e-9);
  EXPECT_GT(sampler.last_oracle_queries(), 0);
}

TEST(SamplerPolymorphismTest, AllBackendsShareTheInterface) {
  // The Figure-2 promise: one QUBO, interchangeable quantum backends.
  anneal::Qubo q = SmallFrustratedQubo();
  const double optimum = anneal::ExactSolver::Solve(q).energy;
  QaoaSampler qaoa;
  VqeSampler vqe;
  GroverMinSampler grover;
  Rng rng(10);
  const std::vector<std::pair<anneal::QuboSolver*, anneal::SolverOptions>>
      backends = {{&qaoa, Reads(40, &rng, /*layers=*/3, /*restarts=*/3)},
                  {&vqe, Reads(40, &rng, /*layers=*/2, /*restarts=*/3)},
                  {&grover, Reads(40, &rng)}};
  for (const auto& [backend, options] : backends) {
    const Result<anneal::SampleSet> set = backend->Solve(q, options);
    ASSERT_TRUE(set.ok()) << backend->name() << ": " << set.status();
    EXPECT_NEAR(set->best().energy, optimum, 1e-9) << backend->name();
  }
}

}  // namespace
}  // namespace algo
}  // namespace qdm
