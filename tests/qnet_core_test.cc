#include <gtest/gtest.h>

#include <cmath>
#include <type_traits>

#include "qdm/circuit/circuit.h"
#include "qdm/qnet/entanglement.h"
#include "qdm/qnet/link.h"
#include "qdm/qnet/qubit.h"
#include "qdm/qnet/teleport.h"
#include "qdm/sim/density_matrix.h"
#include "qdm/sim/noise.h"

namespace qdm {
namespace qnet {
namespace {

// ---------------------------------------------------------------------------
// Werner-state algebra validated against the exact density-matrix simulator.

sim::Statevector BellPhiPlus() {
  circuit::Circuit c(2);
  c.H(0).CX(0, 1);
  return sim::RunCircuit(c);
}

TEST(WernerAlgebraTest, DecayApproachesMaximallyMixed) {
  EXPECT_NEAR(DecayedFidelity(1.0, 0.0, 1.0), 1.0, 1e-12);
  EXPECT_NEAR(DecayedFidelity(1.0, 1e9, 1.0), 0.25, 1e-9);
  // Monotone decreasing.
  double prev = 1.0;
  for (double t : {0.1, 0.5, 1.0, 2.0, 5.0}) {
    const double f = DecayedFidelity(1.0, t, 1.0);
    EXPECT_LT(f, prev);
    prev = f;
  }
}

TEST(WernerAlgebraTest, DecayMatchesDepolarizingChannel) {
  // Werner decay by time t must equal applying the depolarizing channel with
  // matching strength to one half of the pair: w' = w e^{-t/T} corresponds
  // to depolarizing probability p with (1 - 4p/3) = e^{-t/T}.
  const double f0 = 0.95;
  const double t_over_T = 0.7;
  const double predicted = DecayedFidelity(f0, t_over_T, 1.0);

  const double shrink = std::exp(-t_over_T);
  const double p = 0.75 * (1.0 - shrink);
  sim::DensityMatrix rho = sim::DensityMatrix::WernerState(f0);
  rho.ApplyKraus1Q(sim::DepolarizingKraus(p), 0);
  EXPECT_NEAR(rho.FidelityWithPure(BellPhiPlus()), predicted, 1e-12);
}

TEST(WernerAlgebraTest, SwapOfPerfectPairsIsPerfect) {
  EXPECT_NEAR(SwapFidelity(1.0, 1.0), 1.0, 1e-12);
}

TEST(WernerAlgebraTest, SwapDegradesMultiplicatively) {
  // Werner parameters multiply: check on fidelity scale.
  const double f1 = 0.9, f2 = 0.85;
  const double w1 = (4 * f1 - 1) / 3, w2 = (4 * f2 - 1) / 3;
  EXPECT_NEAR(SwapFidelity(f1, f2), (1 + 3 * w1 * w2) / 4, 1e-12);
  EXPECT_LT(SwapFidelity(f1, f2), std::min(f1, f2));
  // Maximally mixed in -> maximally mixed out.
  EXPECT_NEAR(SwapFidelity(0.25, 0.9), 0.25, 1e-12);
}

TEST(WernerAlgebraTest, PurificationImprovesGoodPairs) {
  double p = 0.0;
  const double improved = PurifyFidelity(0.8, 0.8, &p);
  EXPECT_GT(improved, 0.8);
  EXPECT_GT(p, 0.5);
  EXPECT_LT(p, 1.0);
  // Fixed points: perfect pairs stay perfect.
  EXPECT_NEAR(PurifyFidelity(1.0, 1.0, &p), 1.0, 1e-12);
  EXPECT_NEAR(p, 1.0, 1e-12);
}

TEST(WernerAlgebraTest, PurificationSamplingMatchesFormula) {
  Rng rng(5);
  double p_expected = 0.0;
  const double f_expected = PurifyFidelity(0.85, 0.85, &p_expected);
  int successes = 0;
  const int kTrials = 20000;
  for (int t = 0; t < kTrials; ++t) {
    EprPair target{0.85, 0.0};
    if (AttemptPurification(&target, EprPair{0.85, 0.0}, &rng)) {
      ++successes;
      EXPECT_NEAR(target.fidelity, f_expected, 1e-12);
    } else {
      EXPECT_NEAR(target.fidelity, 0.85, 1e-12);
    }
  }
  EXPECT_NEAR(successes / static_cast<double>(kTrials), p_expected, 0.01);
}

// ---------------------------------------------------------------------------
// Fiber link model.

TEST(FiberLinkTest, SuccessProbabilityFollowsBeerLambert) {
  FiberLinkConfig config;
  config.length_km = 50;
  config.attenuation_db_per_km = 0.2;
  config.base_efficiency = 1.0;
  FiberLink link(config);
  EXPECT_NEAR(link.SuccessProbability(), std::pow(10.0, -1.0), 1e-12);

  config.length_km = 100;  // 20 dB -> 1%.
  EXPECT_NEAR(FiberLink(config).SuccessProbability(), 0.01, 1e-12);
}

TEST(FiberLinkTest, RateDecaysExponentiallyWithDistance) {
  FiberLinkConfig config;
  double prev_rate = 1e300;
  for (double km : {10.0, 50.0, 100.0, 200.0}) {
    config.length_km = km;
    const double rate = FiberLink(config).ExpectedRateHz();
    EXPECT_LT(rate, prev_rate);
    prev_rate = rate;
  }
}

TEST(FiberLinkTest, GeneratedPairsMatchExpectedRate) {
  Rng rng(7);
  FiberLinkConfig config;
  config.length_km = 30;
  FiberLink link(config);
  double now = 0.0;
  const int kPairs = 4000;
  for (int i = 0; i < kPairs; ++i) {
    EprPair pair = link.GenerateEntanglement(now, &rng);
    EXPECT_GT(pair.created_at_s, now);
    EXPECT_NEAR(pair.fidelity, config.initial_fidelity, 1e-12);
    now = pair.created_at_s;
  }
  const double empirical_rate = kPairs / now;
  EXPECT_NEAR(empirical_rate / link.ExpectedRateHz(), 1.0, 0.1);
}

// ---------------------------------------------------------------------------
// Qubits and no-cloning.

TEST(QubitTest, NoCloningIsCompileTimeEnforced) {
  static_assert(!std::is_copy_constructible_v<Qubit>,
                "no-cloning: Qubit must not be copyable");
  static_assert(!std::is_copy_assignable_v<Qubit>,
                "no-cloning: Qubit must not be copy-assignable");
  static_assert(std::is_move_constructible_v<Qubit>,
                "teleportation: Qubit must be movable");
}

TEST(QubitTest, MoveConsumesSource) {
  Qubit a = Qubit::FromAngles(1.0, 0.5);
  Qubit b = std::move(a);
  EXPECT_TRUE(a.consumed());
  EXPECT_FALSE(b.consumed());
  EXPECT_NEAR(b.FidelityWith(b.alpha(), b.beta()), 1.0, 1e-12);
}

TEST(QubitTest, MeasurementStatisticsFollowAmplitudes) {
  Rng rng(11);
  const double theta = 2 * std::asin(std::sqrt(0.3));  // P(1) = 0.3.
  int ones = 0;
  const int kShots = 20000;
  for (int s = 0; s < kShots; ++s) {
    ones += Qubit::FromAngles(theta, 0.0).Measure(&rng);
  }
  EXPECT_NEAR(ones / static_cast<double>(kShots), 0.3, 0.02);
}

TEST(QubitDeathTest, UseAfterConsumeAborts) {
  Qubit a = Qubit::Zero();
  Qubit b = std::move(a);
  EXPECT_DEATH(a.alpha(), "no-cloning");
  (void)b;
}

// ---------------------------------------------------------------------------
// Teleportation.

TEST(TeleportTest, PerfectPairDeliversExactState) {
  Rng rng(13);
  for (int t = 0; t < 50; ++t) {
    const double theta = rng.Uniform(0, M_PI);
    const double phi = rng.Uniform(0, 2 * M_PI);
    Qubit payload = Qubit::FromAngles(theta, phi);
    const Complex a = payload.alpha(), b = payload.beta();
    TeleportResult result =
        Teleport(std::move(payload), EprPair{1.0, 0.0}, 100.0, &rng);
    EXPECT_NEAR(result.received.FidelityWith(a, b), 1.0, 1e-12);
    EXPECT_GT(result.classical_latency_s, 0.0);
  }
}

TEST(TeleportTest, SourceIsConsumed) {
  Rng rng(17);
  Qubit payload = Qubit::FromAngles(0.3, 0.1);
  Qubit* raw = &payload;
  TeleportResult result =
      Teleport(std::move(payload), EprPair{1.0, 0.0}, 10.0, &rng);
  EXPECT_TRUE(raw->consumed());
  EXPECT_FALSE(result.received.consumed());
}

TEST(TeleportTest, AverageFidelityMatchesWernerFormula) {
  Rng rng(19);
  const double pair_fidelity = 0.85;
  double total = 0.0;
  const int kTrials = 30000;
  for (int t = 0; t < kTrials; ++t) {
    // Average over random payloads, as the (2F+1)/3 formula specifies.
    const double theta = std::acos(rng.Uniform(-1, 1));
    const double phi = rng.Uniform(0, 2 * M_PI);
    Qubit payload = Qubit::FromAngles(theta, phi);
    const Complex a = payload.alpha(), b = payload.beta();
    TeleportResult result =
        Teleport(std::move(payload), EprPair{pair_fidelity, 0.0}, 1.0, &rng);
    total += result.received.FidelityWith(a, b);
  }
  EXPECT_NEAR(total / kTrials, AverageTeleportFidelity(pair_fidelity), 0.01);
}

TEST(TeleportTest, GateLevelCircuitIsExact) {
  Rng rng(23);
  for (int t = 0; t < 30; ++t) {
    const double theta = rng.Uniform(0, M_PI);
    const double phi = rng.Uniform(0, 2 * M_PI);
    const Complex alpha(std::cos(theta / 2), 0);
    const Complex beta = std::polar(std::sin(theta / 2), phi);
    EXPECT_NEAR(TeleportCircuitFidelity(alpha, beta, &rng), 1.0, 1e-9);
  }
}

}  // namespace
}  // namespace qnet
}  // namespace qdm
