#ifndef QDM_SIM_DENSITY_MATRIX_H_
#define QDM_SIM_DENSITY_MATRIX_H_

#include <vector>

#include "qdm/circuit/circuit.h"
#include "qdm/linalg/matrix.h"
#include "qdm/sim/statevector.h"

namespace qdm {
namespace sim {

/// Exact density-matrix representation for SMALL systems (1 to 10 qubits).
/// Serves as the reference semantics against which the trajectory simulator
/// and the qnet Werner-state fidelity algebra are validated.
///
/// Layout (QuEST's; Jones et al., Sci. Rep. 2019): rho over n qubits is a
/// 2n-qubit Statevector with vec[i | j << n] = rho(i, j), so qubits [0, n)
/// index rows and [n, 2n) columns. rho -> U rho U^dagger is U on the row
/// qubits Q, then conj(U) on the column qubits Q + n, through the
/// Statevector kernels (thread fan-out and SIMD tiers included): O(4^n) work
/// per gate or Kraus operator.
class DensityMatrix {
 public:
  /// rho = |0..0><0..0| over 1 to 10 qubits.
  explicit DensityMatrix(int num_qubits);

  static DensityMatrix FromStatevector(const Statevector& sv);

  /// Two-qubit Werner state: F |Phi+><Phi+| + (1-F)/3 (I - |Phi+><Phi+|).
  /// `fidelity` is the overlap with the Bell state Phi+ = (|00>+|11>)/sqrt(2).
  static DensityMatrix WernerState(double fidelity);

  int num_qubits() const { return num_qubits_; }
  size_t dimension() const { return size_t{1} << num_qubits_; }

  /// rho(row, col).
  Complex entry(uint64_t row, uint64_t col) const {
    return vec_.amplitude(row | (col << num_qubits_));
  }

  /// Dense 2^n x 2^n copy of rho (for tests and debugging).
  linalg::Matrix matrix() const;

  /// rho -> U rho U^dagger for one fully bound circuit gate U.
  void ApplyGate(const circuit::Gate& gate);

  /// Applies a single-qubit channel (2x2 Kraus operators) to qubit q.
  void ApplyKraus1Q(const std::vector<linalg::Matrix>& kraus, int q);

  /// Applies a single-qubit unitary to qubit q.
  void ApplyUnitary1Q(const linalg::Matrix& u, int q);

  /// <psi| rho |psi>.
  double FidelityWithPure(const Statevector& psi) const;

  /// Tr(rho^2) = sum |rho(i, j)|^2 (rho is Hermitian); 1 for pure states.
  double Purity() const { return vec_.NormSquared(); }

  /// Traces out the qubits NOT listed in `keep` (keep is sorted ascending);
  /// remaining qubits are re-indexed in the order given.
  DensityMatrix PartialTrace(const std::vector<int>& keep) const;

  /// Probability that qubit q measures 1.
  double ProbabilityOfOne(int q) const;

 private:
  Complex& mutable_entry(uint64_t row, uint64_t col) {
    return vec_.mutable_amplitudes()[row | (col << num_qubits_)];
  }

  int num_qubits_;
  Statevector vec_;
};

}  // namespace sim
}  // namespace qdm

#endif  // QDM_SIM_DENSITY_MATRIX_H_
