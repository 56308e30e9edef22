#ifndef QDM_SIM_NOISE_H_
#define QDM_SIM_NOISE_H_

#include <map>
#include <vector>

#include "qdm/circuit/circuit.h"
#include "qdm/common/rng.h"
#include "qdm/sim/density_matrix.h"
#include "qdm/sim/statevector.h"

namespace qdm {
namespace sim {

/// Stochastic noise description for the trajectory simulator and the
/// density-matrix reference evolution. Models the "noisy operations"
/// constraint of NISQ machines that Sec III-C(3) of the paper highlights:
/// every sweep in bench_hardware_constraints runs against this model, and
/// the `noisy:<model>:<base>` registry backends (docs/noise.md) translate
/// their model token into one of these.
///
/// After every gate, each active channel is applied to each operand qubit in
/// a fixed order — depolarizing, Pauli, amplitude damping, phase damping —
/// identically on the trajectory path (RunTrajectory) and the density-matrix
/// path (EvolveDensityMatrix), so trajectory averages converge to the exact
/// channel semantics (pinned by noise_channel_test).
struct NoiseModel {
  /// Probability that a uniform random Pauli hits each operand qubit after a
  /// single-qubit gate.
  double depolarizing_1q = 0.0;
  /// Same, after a multi-qubit gate (applied independently per operand).
  double depolarizing_2q = 0.0;
  /// Asymmetric Pauli channel: X / Y / Z error probabilities applied to each
  /// operand qubit after every gate (px + py + pz <= 1).
  double pauli_px = 0.0;
  double pauli_py = 0.0;
  double pauli_pz = 0.0;
  /// Amplitude-damping rate gamma (T1 decay toward |0>) applied to each
  /// operand qubit after every gate.
  double amplitude_damping = 0.0;
  /// Phase-damping rate lambda (T2 dephasing) applied to each operand qubit
  /// after every gate.
  double phase_damping = 0.0;
  /// Probability that a measured bit is flipped at readout.
  double readout_flip = 0.0;

  bool IsNoiseless() const {
    return depolarizing_1q == 0.0 && depolarizing_2q == 0.0 &&
           pauli_px == 0.0 && pauli_py == 0.0 && pauli_pz == 0.0 &&
           amplitude_damping == 0.0 && phase_damping == 0.0 &&
           readout_flip == 0.0;
  }
};

/// Monte-Carlo trajectory simulator: each run draws one random error
/// realization (stochastic Paulis; quantum-jump unraveling for the damping
/// channels). Averaging trajectories converges to the density-matrix channel
/// semantics (verified against EvolveDensityMatrix in noise_channel_test).
///
/// RNG discipline: every channel application consumes exactly ONE uniform
/// draw from the trajectory's Rng regardless of whether an error fires or
/// which error is selected, so a trajectory's draw count is a pure function
/// of (circuit, model). Sample / AverageDiagonalExpectation additionally
/// derive a fresh per-shot Rng from a single engine draw of the caller's
/// Rng, making shot k's randomness independent of the branch outcomes of
/// shots < k (the determinism contract of docs/noise.md; regression-pinned
/// by noise_channel_test.ShotPrefixIndependence).
class TrajectorySimulator {
 public:
  explicit TrajectorySimulator(NoiseModel model) : model_(model) {}

  /// Runs one noisy trajectory of `c` from |0...0>.
  Statevector RunTrajectory(const circuit::Circuit& c, Rng* rng) const;

  /// Samples measurement outcomes, one fresh trajectory per shot (plus
  /// readout errors). Each shot runs on its own Rng derived from one engine
  /// draw of `rng` (see class comment).
  std::map<uint64_t, int> Sample(const circuit::Circuit& c, int shots,
                                 Rng* rng) const;

  /// Mean of a diagonal observable over `trajectories` runs, each on its own
  /// derived Rng (see class comment).
  double AverageDiagonalExpectation(const circuit::Circuit& c,
                                    const std::vector<double>& diagonal,
                                    int trajectories, Rng* rng) const;

  const NoiseModel& model() const { return model_; }

 private:
  /// Applies every active channel of `model_` to qubit `qubit` (one uniform
  /// draw per channel; `depol_p` is the arity-selected depolarizing rate).
  void ApplyChannels(Statevector* sv, int qubit, double depol_p,
                     Rng* rng) const;

  NoiseModel model_;
};

/// Readout error: flips each of the low `num_qubits` bits of outcome `z`
/// with probability `p`, one Bernoulli draw per qubit (none when p == 0).
uint64_t ApplyReadoutFlips(uint64_t z, int num_qubits, double p, Rng* rng);

/// Evolves |0...0> through `c` under `model` with exact density-matrix
/// channel semantics: each gate is DensityMatrix::ApplyGate, then each active
/// channel hits each operand qubit via its Kraus operators in the same fixed
/// order as RunTrajectory, at O(4^n) work per gate or Kraus operator.
/// Readout flips are NOT applied (they act on classical outcomes; apply them
/// when sampling the diagonal). Intended for small n.
DensityMatrix EvolveDensityMatrix(const circuit::Circuit& c,
                                  const NoiseModel& model);

/// Kraus operators of the standard single-qubit channels (used by the
/// density-matrix reference implementation and by qnet fidelity algebra).
std::vector<linalg::Matrix> DepolarizingKraus(double p);
std::vector<linalg::Matrix> PauliKraus(double px, double py, double pz);
std::vector<linalg::Matrix> AmplitudeDampingKraus(double gamma);
std::vector<linalg::Matrix> PhaseDampingKraus(double lambda);

}  // namespace sim
}  // namespace qdm

#endif  // QDM_SIM_NOISE_H_
