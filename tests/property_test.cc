// Property-based suites: invariants checked over randomized sweeps
// (parameterized by seed, per the gtest TEST_P idiom).

#include <gtest/gtest.h>

#include <cmath>

#include "qdm/algo/grover.h"
#include "qdm/algo/qaoa.h"
#include "qdm/anneal/chimera.h"
#include "qdm/anneal/embedding.h"
#include "qdm/anneal/exact_solver.h"
#include "qdm/common/rng.h"
#include "qdm/qnet/entanglement.h"
#include "qdm/qopt/join_order_qubo.h"
#include "qdm/sim/density_matrix.h"
#include "qdm/sim/statevector.h"

namespace qdm {
namespace {

class SeededProperty : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1ull, 7ull, 42ull, 1337ull,
                                           9001ull));

// --- Simulator properties ----------------------------------------------------

circuit::Circuit RandomCircuit(int qubits, int gates, Rng* rng) {
  circuit::Circuit c(qubits);
  for (int g = 0; g < gates; ++g) {
    switch (rng->UniformInt(0, 5)) {
      case 0:
        c.H(static_cast<int>(rng->UniformInt(0, qubits - 1)));
        break;
      case 1:
        c.T(static_cast<int>(rng->UniformInt(0, qubits - 1)));
        break;
      case 2:
        c.RY(static_cast<int>(rng->UniformInt(0, qubits - 1)),
             rng->Uniform(-3, 3));
        break;
      case 3:
        c.RZ(static_cast<int>(rng->UniformInt(0, qubits - 1)),
             rng->Uniform(-3, 3));
        break;
      default: {
        int a = static_cast<int>(rng->UniformInt(0, qubits - 1));
        int b = static_cast<int>(rng->UniformInt(0, qubits - 2));
        if (b >= a) ++b;
        c.CX(a, b);
      }
    }
  }
  return c;
}

TEST_P(SeededProperty, UnitaryEvolutionPreservesNorm) {
  Rng rng(GetParam());
  circuit::Circuit c = RandomCircuit(5, 40, &rng);
  sim::Statevector sv = sim::RunCircuit(c);
  EXPECT_NEAR(sv.NormSquared(), 1.0, 1e-9);
}

TEST_P(SeededProperty, StatevectorAgreesWithDensityMatrix) {
  Rng rng(GetParam());
  circuit::Circuit c = RandomCircuit(4, 20, &rng);
  sim::Statevector sv = sim::RunCircuit(c);
  sim::DensityMatrix rho = sim::DensityMatrix::FromStatevector(sv);
  EXPECT_NEAR(rho.Purity(), 1.0, 1e-9);
  for (int q = 0; q < 4; ++q) {
    EXPECT_NEAR(rho.ProbabilityOfOne(q), sv.ProbabilityOfOne(q), 1e-9);
  }
}

TEST_P(SeededProperty, MeasurementMarginalsAreConsistent) {
  Rng rng(GetParam());
  circuit::Circuit c = RandomCircuit(4, 25, &rng);
  sim::Statevector sv = sim::RunCircuit(c);
  // P(q=1) from amplitudes equals the sum of per-state probabilities.
  std::vector<double> probs = sv.Probabilities();
  for (int q = 0; q < 4; ++q) {
    double marginal = 0;
    for (uint64_t z = 0; z < probs.size(); ++z) {
      if ((z >> q) & 1) marginal += probs[z];
    }
    EXPECT_NEAR(marginal, sv.ProbabilityOfOne(q), 1e-9);
  }
}

// --- QAOA gate-level vs diagonal evolver -------------------------------------

anneal::Qubo RandomQubo(int n, Rng* rng) {
  anneal::Qubo q(n);
  for (int i = 0; i < n; ++i) q.AddLinear(i, rng->Uniform(-2, 2));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng->Bernoulli(0.5)) q.AddQuadratic(i, j, rng->Uniform(-2, 2));
    }
  }
  return q;
}

TEST_P(SeededProperty, QaoaGateCircuitMatchesDiagonalEvolver) {
  Rng rng(GetParam());
  anneal::Qubo qubo = RandomQubo(5, &rng);
  algo::Qaoa qaoa(qubo, 2);
  std::vector<double> params(4);
  for (double& p : params) p = rng.Uniform(-1, 1);
  sim::Statevector fast = qaoa.StateForParameters(params);
  sim::Statevector gate = sim::RunCircuit(qaoa.BuildCircuit(params));
  EXPECT_NEAR(gate.FidelityWith(fast), 1.0, 1e-9);
}

// --- Embedding correctness over random QUBOs ---------------------------------

TEST_P(SeededProperty, EmbeddedGroundStateMatchesLogicalGroundState) {
  Rng rng(GetParam());
  anneal::Qubo logical = RandomQubo(4, &rng);
  anneal::ChimeraGraph graph(1, 1, 4);
  auto embedding = anneal::CliqueEmbedding(4, graph);
  ASSERT_TRUE(embedding.ok());
  const double chain_strength = 4 * logical.MaxAbsCoefficient() + 1.0;
  auto embedded = anneal::EmbedQubo(logical, *embedding, graph, chain_strength);
  ASSERT_TRUE(embedded.ok());

  anneal::Sample physical = anneal::ExactSolver::Solve(embedded->physical);
  anneal::Sample unembedded = anneal::Unembed(logical, *embedded, physical);
  anneal::Sample truth = anneal::ExactSolver::Solve(logical);
  EXPECT_NEAR(unembedded.energy, truth.energy, 1e-9);
  EXPECT_EQ(unembedded.chain_break_fraction, 0.0);
}

// --- Grover success probability closed form ----------------------------------

TEST_P(SeededProperty, GroverSuccessMatchesSineFormula) {
  Rng rng(GetParam());
  const int n = 6;
  const uint64_t size = 1 << n;
  const uint64_t marked_count = 1 + rng.UniformInt(0, 3);
  std::set<uint64_t> marked;
  while (marked.size() < marked_count) {
    marked.insert(static_cast<uint64_t>(rng.UniformInt(0, size - 1)));
  }
  algo::CountingOracle oracle([&](uint64_t x) { return marked.count(x) > 0; });
  algo::GroverResult r = algo::GroverSearch(n, &oracle, marked.size(), &rng);
  const double theta =
      std::asin(std::sqrt(static_cast<double>(marked.size()) / size));
  EXPECT_NEAR(r.success_probability,
              std::pow(std::sin((2 * r.iterations + 1) * theta), 2), 1e-9);
}

// --- Join-order QUBO energy identity -----------------------------------------

TEST_P(SeededProperty, JoinOrderQuboEnergyEqualsProxyOnPermutations) {
  Rng rng(GetParam());
  db::JoinGraph g =
      db::MakeRandomQuery(static_cast<db::QueryShape>(GetParam() % 4), 5, &rng);
  qopt::JoinOrderQubo encoding(g);
  std::vector<int> order{0, 1, 2, 3, 4};
  rng.Shuffle(&order);
  anneal::Assignment x(encoding.num_variables(), 0);
  for (size_t s = 0; s < order.size(); ++s) {
    x[encoding.VarIndex(order[s], static_cast<int>(s))] = 1;
  }
  EXPECT_NEAR(encoding.qubo().Energy(x), qopt::LogCostProxy(order, g), 1e-9);
}

// --- Werner algebra bounds ---------------------------------------------------

TEST_P(SeededProperty, WernerOperationsStayInPhysicalRange) {
  Rng rng(GetParam());
  for (int t = 0; t < 50; ++t) {
    const double f1 = rng.Uniform(0.25, 1.0);
    const double f2 = rng.Uniform(0.25, 1.0);
    const double swapped = qnet::SwapFidelity(f1, f2);
    EXPECT_GE(swapped, 0.25 - 1e-12);
    EXPECT_LE(swapped, 1.0 + 1e-12);
    double p = 0;
    const double purified = qnet::PurifyFidelity(f1, f2, &p);
    EXPECT_GE(purified, 0.0);
    EXPECT_LE(purified, 1.0 + 1e-12);
    EXPECT_GT(p, 0.0);
    EXPECT_LE(p, 1.0 + 1e-12);
    const double decayed = qnet::DecayedFidelity(f1, rng.Uniform(0, 5), 1.0);
    EXPECT_GE(decayed, 0.25 - 1e-12);
    EXPECT_LE(decayed, f1 + 1e-12);
  }
}

TEST_P(SeededProperty, PurificationImprovesAboveOneHalf) {
  Rng rng(GetParam());
  for (int t = 0; t < 30; ++t) {
    // BBPSSW strictly improves identical pairs with F in (0.5, 1).
    const double f = rng.Uniform(0.55, 0.99);
    double p = 0;
    EXPECT_GT(qnet::PurifyFidelity(f, f, &p), f) << "F=" << f;
  }
}

// --- Exact solver is the true minimum ----------------------------------------

TEST_P(SeededProperty, ExactSolverNeverBeatenBySampling) {
  Rng rng(GetParam());
  anneal::Qubo q = RandomQubo(10, &rng);
  const double ground = anneal::ExactSolver::Solve(q).energy;
  for (int t = 0; t < 200; ++t) {
    anneal::Assignment x(10);
    for (auto& b : x) b = rng.Bernoulli(0.5);
    EXPECT_GE(q.Energy(x), ground - 1e-9);
  }
}

}  // namespace
}  // namespace qdm
