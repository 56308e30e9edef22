#ifndef QDM_ALGO_QAOA_H_
#define QDM_ALGO_QAOA_H_

#include <string>
#include <vector>

#include "qdm/algo/optimizers.h"
#include "qdm/anneal/qubo.h"
#include "qdm/anneal/solver.h"
#include "qdm/circuit/circuit.h"
#include "qdm/common/status.h"
#include "qdm/sim/statevector.h"

namespace qdm {
namespace algo {

/// BuildDiagonal materializes 2^n doubles and stops at this many qubits, so
/// no gate-based backend goes past it whatever options.max_qubits says.
constexpr int kDiagonalQubitCap = 26;

/// Full 2^n energy diagonal of a QUBO (E(z) for every basis state z, with
/// variable i read from bit i). The cost Hamiltonian of QAOA/VQE/Grover-min.
std::vector<double> BuildDiagonal(const anneal::Qubo& qubo);

/// The state-vector guard of the gate-based backends: options.max_qubits
/// (0 = `default_max_qubits`), clamped to kDiagonalQubitCap. A problem with
/// more variables is InvalidArgument naming `what`.
Status CheckFitsStateVector(const anneal::Qubo& qubo,
                            const anneal::SolverOptions& options,
                            int default_max_qubits, const char* what);

/// Quantum Approximate Optimization Algorithm over a QUBO cost Hamiltonian
/// (Farhi et al.; the gate-based path of the paper's Figure 2, used for MQO
/// in [21,22], join ordering in [23-26] and schema matching in [28]).
///
/// Parameters are (gamma_1..gamma_p, beta_1..beta_p). Layer l applies the
/// phase separator exp(-i gamma_l C) followed by the transverse mixer
/// RX(2 beta_l) on every qubit.
class Qaoa {
 public:
  Qaoa(const anneal::Qubo& qubo, int layers);

  int num_qubits() const { return num_qubits_; }
  int layers() const { return layers_; }
  int num_parameters() const { return 2 * layers_; }
  const std::vector<double>& diagonal() const { return diagonal_; }

  /// Fast path: evolves the state applying exp(-i gamma C) directly as
  /// diagonal phases (exact, no Trotter error).
  sim::Statevector StateForParameters(const std::vector<double>& params) const;

  /// <C> for the given parameters (exact expectation, the "infinite shots"
  /// limit).
  double Expectation(const std::vector<double>& params) const;

  /// Gate-level circuit: RZ / RZZ phase separator + RX mixer. Produces the
  /// same state as StateForParameters up to global phase (tested).
  circuit::Circuit BuildCircuit(const std::vector<double>& params) const;

  /// Classical outer loop: minimizes Expectation over the 2p angles with
  /// `restarts` random restarts.
  OptimizationResult Optimize(Optimizer* optimizer, int restarts,
                              Rng* rng) const;

 private:
  int num_qubits_;
  int layers_;
  anneal::IsingModel ising_;
  std::vector<double> diagonal_;
};

/// QAOA as the "qaoa" registry backend, interchangeable with the annealing
/// backends (Figure 2's two arms). Reads layers, restarts and max_qubits
/// (see CheckFitsStateVector). The variational loop always optimizes
/// noiselessly; with options.noise set, the optimal gate-level circuit is
/// sampled under it via SampleCircuitNoisy (docs/noise.md).
class QaoaSampler : public anneal::QuboSolver {
 public:
  static constexpr int kDefaultLayers = 2;
  static constexpr int kDefaultRestarts = 3;
  static constexpr int kDefaultMaxQubits = 20;

  Result<anneal::SampleSet> Solve(
      const anneal::Qubo& qubo, const anneal::SolverOptions& options) override;
  std::string name() const override { return "qaoa"; }
};

}  // namespace algo
}  // namespace qdm

#endif  // QDM_ALGO_QAOA_H_
