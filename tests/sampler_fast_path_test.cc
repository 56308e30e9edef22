// Pins the exactness argument behind the annealing samplers' fast path:
//
//   - MetropolisAccept(u, y) is `u < std::exp(-y)` on an edge grid (±0,
//     subnormals, the ends of exp's range, ±inf, NaN, negative y, and u a
//     few ulps either side of exp(-y)) and on 10^7 seeded random pairs;
//   - QuboAdjacency::exact_fields() holds exactly for finite integer
//     coefficients whose row bounds stay within 2^53;
//   - simulated_annealing and parallel_tempering equal a copy of the loop
//     they replaced (the CSR sum and std::exp on every uphill proposal)
//     bit for bit, on seeded random integer QUBOs, which take the
//     exact-field path, and on real-valued ones, which do not. The copy
//     runs its reads serially, read r on an Rng seeded by the r-th draw of
//     the caller's, and reports Qubo::Energy of each returned assignment.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "qdm/anneal/qubo.h"
#include "qdm/anneal/sampler.h"
#include "qdm/anneal/simulated_annealing.h"
#include "qdm/anneal/solver.h"
#include "qdm/common/rng.h"

namespace qdm {
namespace anneal {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

bool Reference(double u, double y) {
  return u < std::exp(-y);
}

TEST(MetropolisAcceptTest, EdgeGridMatchesExp) {
  const double ys[] = {0.0,
                       -0.0,
                       std::numeric_limits<double>::denorm_min(),
                       1e-300,
                       1e-9,
                       0.5,
                       1.0,
                       2.0,
                       3.0,
                       45.0,
                       700.0,
                       708.0,
                       745.0,
                       746.0,
                       1e300,
                       kInf,
                       -kInf,
                       kNaN,
                       -std::numeric_limits<double>::denorm_min(),
                       -1e-9,
                       -0.5,
                       -1.0,
                       -2.0,
                       -2.2,
                       -3.0,
                       -45.0,
                       -700.0,
                       -746.0,
                       -1e300};
  for (const double y : ys) {
    std::vector<double> us = {0.0, 0x1p-64, 0.5, std::nextafter(1.0, 0.0)};
    // exp(-y) and up to 4 ulps either side; nextafter toward 0 stops at 0,
    // so u stays >= 0.
    const double boundary = std::exp(-y);
    double below = boundary;
    double above = boundary;
    us.push_back(boundary);
    for (int ulp = 0; ulp < 4; ++ulp) {
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, kInf);
      us.push_back(below);
      us.push_back(above);
    }
    for (const double u : us) {
      EXPECT_EQ(MetropolisAccept(u, y), Reference(u, y))
          << "u = " << u << ", y = " << y;
    }
  }
}

TEST(MetropolisAcceptTest, RandomPairsMatchExp) {
  // Four families of y: the spread Metropolis sees, log-uniform scales,
  // pairs within a relative 2^-20 .. 2^-40 of the boundary, and negative
  // y. u is uniform, as Rng::Uniform() draws it.
  Rng rng(20240517);
  int64_t mismatches = 0;
  for (int trial = 0; trial < 10'000'000; ++trial) {
    const double u = rng.Uniform();
    double y = 0.0;
    switch (trial % 4) {
      case 0:
        y = 50.0 * rng.Uniform();
        break;
      case 1:
        y = std::exp2(rng.Uniform(-40, 10));
        break;
      case 2:
        y = -std::log(u) * (1.0 + (rng.Bernoulli(0.5) ? 1 : -1) *
                                      std::exp2(rng.Uniform(-40, -20)));
        break;
      default:
        y = -std::exp2(rng.Uniform(-40, 10));
        break;
    }
    if (MetropolisAccept(u, y) != Reference(u, y)) {
      if (++mismatches <= 10) {
        ADD_FAILURE() << "u = " << u << ", y = " << y << " (trial " << trial
                      << ")";
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

bool ExactFields(const Qubo& qubo) {
  return QuboAdjacency(qubo).exact_fields();
}

TEST(ExactFieldsTest, TruthTable) {
  constexpr double kTwo53 = 0x1p53;
  const auto pair = [](double linear, double weight) {
    Qubo qubo(2);
    qubo.AddLinear(0, linear);
    qubo.AddQuadratic(0, 1, weight);
    return qubo;
  };
  EXPECT_TRUE(ExactFields(pair(3.0, -7.0)));
  EXPECT_TRUE(ExactFields(pair(0.0, 0.0)));
  EXPECT_TRUE(ExactFields(pair(-0.0, 1.0)));
  EXPECT_FALSE(ExactFields(pair(3.0, 0.5)));
  EXPECT_FALSE(ExactFields(pair(0.25, 1.0)));
  EXPECT_FALSE(ExactFields(pair(1.0, kInf)));
  EXPECT_FALSE(ExactFields(pair(1.0, -kInf)));
  EXPECT_FALSE(ExactFields(pair(-kInf, 1.0)));
  EXPECT_FALSE(ExactFields(pair(1.0, kNaN)));
  EXPECT_FALSE(ExactFields(pair(kNaN, 1.0)));
  EXPECT_FALSE(ExactFields(pair(1.0, 1e300)));

  // Row bounds just under, at and just over 2^53. 2^53 + 1 rounds to 2^53
  // as a double, so only an exact sum tells the last two cases apart.
  EXPECT_TRUE(ExactFields(pair(kTwo53 - 2, 1.0)));
  EXPECT_TRUE(ExactFields(pair(kTwo53 - 1, -1.0)));
  EXPECT_TRUE(ExactFields(pair(kTwo53, 0.0)));
  EXPECT_FALSE(ExactFields(pair(kTwo53, 1.0)));
  EXPECT_FALSE(ExactFields(pair(-kTwo53, -1.0)));
  EXPECT_FALSE(ExactFields(pair(kTwo53 - 1, 2.0)));

  // The bound is per variable: variable 1 sums two weights of 2^52 and
  // sits at 2^53 exactly; one more unit on it passes the bound.
  Qubo star(3);
  star.AddQuadratic(0, 1, 0x1p52);
  star.AddQuadratic(1, 2, -0x1p52);
  EXPECT_TRUE(ExactFields(star));
  star.AddLinear(1, 1.0);
  EXPECT_FALSE(ExactFields(star));

  // A linear-only QUBO, and one whose every weight cancels to zero.
  Qubo linear(4);
  for (int i = 0; i < 4; ++i) linear.AddLinear(i, i - 2.0);
  EXPECT_TRUE(ExactFields(linear));
  Qubo cancelled(2);
  cancelled.AddQuadratic(0, 1, 0.5);
  cancelled.AddQuadratic(0, 1, -0.5);
  EXPECT_TRUE(ExactFields(cancelled));
}

// The annealing loop as it was before exact fields and MetropolisAccept:
// every proposal sums its CSR row, and every uphill one calls std::exp.
// Read r runs on its own Rng, seeded by the r-th draw of `rng`.
SampleSet ReferenceAnneal(const Qubo& qubo, const SolverOptions& options,
                          Rng* rng) {
  const QuboAdjacency adj(qubo);
  const int n = adj.num_variables();
  const auto [beta_min, beta_max] = BetaRange(adj, options);
  const int sweeps = options.num_sweeps;
  const double ratio =
      sweeps > 1 ? std::pow(beta_max / beta_min, 1.0 / (sweeps - 1)) : 1.0;
  SampleSet result;
  for (int read = 0; read < options.num_reads; ++read) {
    Rng read_rng(rng->engine()());
    SpinMasks spins;
    adj.RandomSpins(&read_rng, &spins);
    double beta = beta_min;
    for (int sweep = 0; sweep < sweeps; ++sweep, beta *= ratio) {
      for (int i = 0; i < n; ++i) {
        const double delta = adj.FlipDelta(spins.data(), i);
        if (delta <= 0.0 || read_rng.Uniform() < std::exp(-beta * delta)) {
          spins[i] = ~spins[i];
        }
      }
    }
    const Assignment x = ToAssignment(spins);
    result.Add(Sample{x, qubo.Energy(x), 0.0});
  }
  return result;
}

// The tempering loop as it was, counting the swaps it accepts through a
// Uniform() draw into `*drawn_swaps`. Read r runs on its own Rng, seeded by
// the r-th draw of `rng`.
SampleSet ReferenceTempering(const Qubo& qubo, const SolverOptions& options,
                             Rng* rng, int64_t* drawn_swaps) {
  const QuboAdjacency adj(qubo);
  const int n = adj.num_variables();
  const auto [beta_min, beta_max] = BetaRange(adj, options);
  const int r = options.num_replicas;
  std::vector<double> betas(r);
  for (int k = 0; k < r; ++k) {
    betas[k] = beta_min *
               std::pow(beta_max / beta_min, static_cast<double>(k) / (r - 1));
  }
  SampleSet result;
  for (int read = 0; read < options.num_reads; ++read) {
    Rng read_rng(rng->engine()());
    std::vector<SpinMasks> replicas(r);
    std::vector<double> energies(r);
    for (int k = 0; k < r; ++k) {
      energies[k] = adj.RandomSpins(&read_rng, &replicas[k]);
    }
    SpinMasks best = replicas[0];
    double best_energy = energies[0];
    for (int sweep = 0; sweep < options.num_sweeps; ++sweep) {
      for (int k = 0; k < r; ++k) {
        uint64_t* spins = replicas[k].data();
        for (int i = 0; i < n; ++i) {
          const double delta = adj.FlipDelta(spins, i);
          if (delta <= 0.0 ||
              read_rng.Uniform() < std::exp(-betas[k] * delta)) {
            spins[i] = ~spins[i];
            energies[k] += delta;
          }
        }
        if (energies[k] < best_energy) {
          best_energy = energies[k];
          best = replicas[k];
        }
      }
      if (sweep % options.swap_interval == 0) {
        for (int k = 0; k + 1 < r; ++k) {
          const double arg =
              (betas[k + 1] - betas[k]) * (energies[k + 1] - energies[k]);
          const bool draws = !(arg >= 0.0);
          if (arg >= 0.0 || read_rng.Uniform() < std::exp(arg)) {
            *drawn_swaps += draws;
            std::swap(replicas[k], replicas[k + 1]);
            std::swap(energies[k], energies[k + 1]);
          }
        }
      }
    }
    const Assignment x = ToAssignment(best);
    result.Add(Sample{x, qubo.Energy(x), 0.0});
  }
  return result;
}

enum class Family { kMixed, kLinearOnly, kNegative, kCancelling, kReal };
constexpr const char* kFamilyNames[] = {"mixed", "linear-only", "negative",
                                        "cancelling", "real"};

// A seeded random QUBO on n variables, each pair coupled with probability
// `density`. Integer families draw from small ranges; kCancelling draws
// +-1 couplings and linear terms in [-2, 2], so many fields sum to 0 (and
// a set variable's delta to -0.0).
Qubo RandomQubo(Family family, int n, double density, Rng* rng) {
  const auto draw = [&](int lo, int hi) {
    return static_cast<double>(rng->UniformInt(lo, hi));
  };
  Qubo qubo(n);
  for (int i = 0; i < n; ++i) {
    switch (family) {
      case Family::kMixed:
      case Family::kLinearOnly:
        qubo.AddLinear(i, draw(-20, 20));
        break;
      case Family::kNegative:
        qubo.AddLinear(i, draw(-5, 5));
        break;
      case Family::kCancelling:
        qubo.AddLinear(i, draw(-2, 2));
        break;
      case Family::kReal:
        qubo.AddLinear(i, rng->Uniform(-1, 1));
        break;
    }
  }
  if (family == Family::kLinearOnly) return qubo;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (!rng->Bernoulli(density)) continue;
      switch (family) {
        case Family::kMixed:
          qubo.AddQuadratic(i, j, draw(-30, 30));
          break;
        case Family::kNegative:
          qubo.AddQuadratic(i, j, draw(-9, -1));
          break;
        case Family::kCancelling:
          qubo.AddQuadratic(i, j, rng->Bernoulli(0.5) ? 1.0 : -1.0);
          break;
        case Family::kReal:
          qubo.AddQuadratic(i, j, rng->Uniform(-1, 1));
          break;
        case Family::kLinearOnly:
          break;
      }
    }
  }
  return qubo;
}

SolverOptions AnnealOptions(Rng* rng) {
  SolverOptions options;
  options.num_reads = 3;
  options.num_sweeps = 40;
  options.rng = rng;
  return options;
}

SolverOptions TemperingOptions(Rng* rng) {
  SolverOptions options;
  options.num_reads = 2;
  options.num_sweeps = 30;
  options.num_replicas = 4;
  options.swap_interval = 2;
  options.rng = rng;
  return options;
}

TEST(SamplerFastPathTest, MatchesTheReferenceLoopBitForBit) {
  const Family families[] = {Family::kMixed, Family::kLinearOnly,
                             Family::kNegative, Family::kCancelling,
                             Family::kReal};
  const int sizes[] = {1, 2, 3, 5, 8, 13, 21, 34, 64};
  const double densities[] = {0.1, 0.4, 1.0};
  int64_t drawn_swaps = 0;
  uint64_t seed = 1;
  for (const Family family : families) {
    for (const int n : sizes) {
      for (const double density : densities) {
        ++seed;
        Rng qubo_rng(seed);
        const Qubo qubo = RandomQubo(family, n, density, &qubo_rng);
        const std::string label =
            std::string(kFamilyNames[static_cast<int>(family)]) +
            " n=" + std::to_string(n) + " density=" + std::to_string(density);
        ASSERT_EQ(QuboAdjacency(qubo).exact_fields(), family != Family::kReal)
            << label;

        Rng rng(seed), reference_rng(seed);
        const Result<SampleSet> annealed =
            SolveWith("simulated_annealing", qubo, AnnealOptions(&rng));
        ASSERT_TRUE(annealed.ok()) << label << ": " << annealed.status();
        EXPECT_TRUE(BitIdentical(
            *annealed, ReferenceAnneal(qubo, AnnealOptions(&reference_rng),
                                       &reference_rng)))
            << "simulated_annealing, " << label;
        // Same draws: each Rng gave one seed per read and ends in the same
        // state.
        EXPECT_EQ(rng.Uniform(), reference_rng.Uniform()) << label;

        const Result<SampleSet> tempered =
            SolveWith("parallel_tempering", qubo, TemperingOptions(&rng));
        ASSERT_TRUE(tempered.ok()) << label << ": " << tempered.status();
        EXPECT_TRUE(BitIdentical(
            *tempered,
            ReferenceTempering(qubo, TemperingOptions(&reference_rng),
                               &reference_rng, &drawn_swaps)))
            << "parallel_tempering, " << label;
        EXPECT_EQ(rng.Uniform(), reference_rng.Uniform()) << label;
      }
    }
  }
  // Replicas did exchange, and through MetropolisAccept, not only downhill.
  EXPECT_GT(drawn_swaps, 100);
}

// Couplings of +-inf make fields +-inf and NaN (inf + -inf). The fields are
// not exact, so the CSR path runs, and a NaN delta still draws Uniform()
// and is rejected, as in the reference loop.
TEST(SamplerFastPathTest, NonFiniteCouplingsMatchTheReferenceLoop) {
  Rng qubo_rng(7);
  Qubo qubo(12);
  for (int i = 0; i < 12; ++i) qubo.AddLinear(i, qubo_rng.Uniform(-1, 1));
  for (int i = 0; i < 12; ++i) {
    for (int j = i + 1; j < 12; ++j) {
      const double u = qubo_rng.Uniform();
      qubo.AddQuadratic(i, j, u < 0.1 ? kInf : u < 0.2 ? -kInf : u - 0.6);
    }
  }
  ASSERT_FALSE(QuboAdjacency(qubo).exact_fields());
  SolverOptions options;
  options.num_reads = 3;
  options.num_sweeps = 20;
  options.beta_min = 0.1;
  options.beta_max = 3.0;
  Rng rng(8), reference_rng(8);
  options.rng = &rng;
  const Result<SampleSet> annealed =
      SolveWith("simulated_annealing", qubo, options);
  ASSERT_TRUE(annealed.ok()) << annealed.status();
  options.rng = &reference_rng;
  EXPECT_TRUE(
      BitIdentical(*annealed, ReferenceAnneal(qubo, options, &reference_rng)));
  EXPECT_EQ(rng.Uniform(), reference_rng.Uniform());
}

}  // namespace
}  // namespace anneal
}  // namespace qdm
