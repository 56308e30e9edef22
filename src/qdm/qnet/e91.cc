#include "qdm/qnet/e91.h"

#include <cmath>

#include "qdm/circuit/circuit.h"
#include "qdm/common/check.h"
#include "qdm/nonlocal/games.h"
#include "qdm/sim/statevector.h"

namespace qdm {
namespace qnet {

namespace {

using circuit::GateKind;
using circuit::SingleQubitMatrix;

sim::Statevector NoisyBellPair(double fidelity, Rng* rng) {
  circuit::Circuit c(2);
  c.H(0).CX(0, 1);
  sim::Statevector sv = sim::RunCircuit(c);
  // Trajectory realization of the Werner state: with probability 1 - w,
  // replace by a uniformly random Bell state via a random Pauli on one half
  // (averages to F |Phi+><Phi+| + (1-F)/3 * rest).
  const double w = (4.0 * fidelity - 1.0) / 3.0;
  if (!rng->Bernoulli(std::max(0.0, w))) {
    const GateKind paulis[4] = {GateKind::kI, GateKind::kX, GateKind::kY,
                                GateKind::kZ};
    sv.Apply1Q(SingleQubitMatrix(paulis[rng->UniformInt(0, 3)], {}), 1);
  }
  return sv;
}

}  // namespace

double ExpectedE91S(double pair_fidelity) {
  const double w = (4.0 * pair_fidelity - 1.0) / 3.0;
  return w * 2.0 * std::sqrt(2.0);
}

E91Result RunE91(const E91Config& config, Rng* rng) {
  QDM_CHECK_GT(config.num_pairs, 0);
  const double alice_angles[3] = {0.0, M_PI / 4, M_PI / 2};
  const double bob_angles[3] = {M_PI / 4, M_PI / 2, 3 * M_PI / 4};

  // CHSH correlator accumulators for the four test settings
  // (a in {0, pi/2}) x (b in {pi/4, 3pi/4}).
  double corr[2][2] = {{0, 0}, {0, 0}};
  int counts[2][2] = {{0, 0}, {0, 0}};
  int key_bits = 0, key_errors = 0;

  for (int round = 0; round < config.num_pairs; ++round) {
    sim::Statevector pair = NoisyBellPair(config.pair_fidelity, rng);

    if (config.eavesdropper) {
      // Intercept-resend in Z on both halves: collapses all correlations to
      // the computational basis.
      pair.MeasureQubit(0, rng);
      pair.MeasureQubit(1, rng);
    }

    const int a = static_cast<int>(rng->UniformInt(0, 2));
    const int b = static_cast<int>(rng->UniformInt(0, 2));
    pair.Apply1Q(nonlocal::MeasureInXZPlane(alice_angles[a]), 0);
    pair.Apply1Q(nonlocal::MeasureInXZPlane(bob_angles[b]), 1);
    const uint64_t outcome = pair.SampleBasisState(rng);
    const int alice_bit = outcome & 1;
    const int bob_bit = (outcome >> 1) & 1;

    if (alice_angles[a] == bob_angles[b]) {
      // Key round: |Phi+> correlates equal-angle measurements perfectly.
      ++key_bits;
      if (alice_bit != bob_bit) ++key_errors;
    } else if ((a == 0 || a == 2) && (b == 0 || b == 2)) {
      // CHSH test round.
      const int ai = a == 0 ? 0 : 1;
      const int bi = b == 0 ? 0 : 1;
      corr[ai][bi] += (alice_bit == bob_bit) ? 1.0 : -1.0;
      ++counts[ai][bi];
    }
  }

  E91Result result;
  auto expectation = [&](int ai, int bi) {
    return counts[ai][bi] > 0 ? corr[ai][bi] / counts[ai][bi] : 0.0;
  };
  // S = E(0, pi/4) - E(0, 3pi/4) + E(pi/2, pi/4) + E(pi/2, 3pi/4).
  result.s_value = expectation(0, 0) - expectation(0, 1) + expectation(1, 0) +
                   expectation(1, 1);
  result.key_bits = key_bits;
  result.qber = key_bits > 0 ? static_cast<double>(key_errors) / key_bits : 0.0;
  result.aborted = result.s_value <= config.s_threshold;
  if (result.aborted) result.key_bits = 0;
  return result;
}

}  // namespace qnet
}  // namespace qdm
