#include "qdm/sim/noise.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "qdm/common/check.h"

namespace qdm {
namespace sim {

namespace {

linalg::Matrix PauliMatrix(int index) {
  using circuit::GateKind;
  const GateKind paulis[3] = {GateKind::kX, GateKind::kY, GateKind::kZ};
  return circuit::SingleQubitMatrix(paulis[index], {});
}

}  // namespace

void TrajectorySimulator::ApplyChannels(Statevector* sv, int qubit,
                                        double depol_p, Rng* rng) const {
  // Each active channel consumes exactly one uniform draw: the same u
  // decides both whether an error fires and which branch is taken, so the
  // trajectory's draw count depends only on (circuit, model) — never on
  // earlier branch outcomes (the fixed-draw discipline of docs/noise.md).
  if (depol_p > 0.0) {
    const double u = rng->Uniform();
    if (u < depol_p) {
      const int index =
          std::min(2, static_cast<int>(3.0 * u / depol_p));
      sv->Apply1Q(PauliMatrix(index), qubit);
    }
  }
  const double pauli_total =
      model_.pauli_px + model_.pauli_py + model_.pauli_pz;
  if (pauli_total > 0.0) {
    const double u = rng->Uniform();
    if (u < model_.pauli_px) {
      sv->Apply1Q(PauliMatrix(0), qubit);
    } else if (u < model_.pauli_px + model_.pauli_py) {
      sv->Apply1Q(PauliMatrix(1), qubit);
    } else if (u < pauli_total) {
      sv->Apply1Q(PauliMatrix(2), qubit);
    }
  }
  if (model_.amplitude_damping > 0.0) {
    // Quantum-jump unraveling: jump with probability ||K1 psi||^2 =
    // gamma * P(q = 1), otherwise apply the no-jump operator; renormalizing
    // either branch reproduces the exact channel on average.
    const double gamma = model_.amplitude_damping;
    const double p_jump = gamma * sv->ProbabilityOfOne(qubit);
    const double u = rng->Uniform();
    if (u < p_jump) {
      const linalg::Matrix jump{{Complex(0, 0), Complex(1, 0)},
                                {Complex(0, 0), Complex(0, 0)}};
      sv->Apply1Q(jump, qubit);
    } else {
      const linalg::Matrix no_jump{
          {Complex(1, 0), Complex(0, 0)},
          {Complex(0, 0), Complex(std::sqrt(1.0 - gamma), 0)}};
      sv->Apply1Q(no_jump, qubit);
    }
    sv->Normalize();
  }
  if (model_.phase_damping > 0.0) {
    const double lambda = model_.phase_damping;
    const double p_jump = lambda * sv->ProbabilityOfOne(qubit);
    const double u = rng->Uniform();
    if (u < p_jump) {
      const linalg::Matrix jump{{Complex(0, 0), Complex(0, 0)},
                                {Complex(0, 0), Complex(1, 0)}};
      sv->Apply1Q(jump, qubit);
    } else {
      const linalg::Matrix no_jump{
          {Complex(1, 0), Complex(0, 0)},
          {Complex(0, 0), Complex(std::sqrt(1.0 - lambda), 0)}};
      sv->Apply1Q(no_jump, qubit);
    }
    sv->Normalize();
  }
}

Statevector TrajectorySimulator::RunTrajectory(const circuit::Circuit& c,
                                               Rng* rng) const {
  Statevector sv(c.num_qubits());
  for (const circuit::Gate& gate : c.gates()) {
    sv.ApplyGate(gate);
    const double p = gate.qubits.size() == 1 ? model_.depolarizing_1q
                                             : model_.depolarizing_2q;
    for (int q : gate.qubits) ApplyChannels(&sv, q, p, rng);
  }
  return sv;
}

std::map<uint64_t, int> TrajectorySimulator::Sample(const circuit::Circuit& c,
                                                    int shots, Rng* rng) const {
  std::map<uint64_t, int> counts;
  if (model_.IsNoiseless()) {
    // One exact state, many samples.
    Statevector sv = RunCircuit(c);
    for (int s = 0; s < shots; ++s) ++counts[sv.SampleBasisState(rng)];
    return counts;
  }
  for (int s = 0; s < shots; ++s) {
    // One engine draw of the caller's Rng seeds the whole shot, so shot k
    // is a pure function of the k-th draw — independent of how many random
    // numbers earlier shots' error branches consumed.
    Rng shot_rng(rng->engine()());
    Statevector sv = RunTrajectory(c, &shot_rng);
    ++counts[ApplyReadoutFlips(sv.SampleBasisState(&shot_rng), c.num_qubits(),
                               model_.readout_flip, &shot_rng)];
  }
  return counts;
}

double TrajectorySimulator::AverageDiagonalExpectation(
    const circuit::Circuit& c, const std::vector<double>& diagonal,
    int trajectories, Rng* rng) const {
  QDM_CHECK_GT(trajectories, 0);
  if (model_.IsNoiseless()) {
    return RunCircuit(c).ExpectationDiagonal(diagonal);
  }
  double total = 0.0;
  for (int t = 0; t < trajectories; ++t) {
    Rng shot_rng(rng->engine()());
    total += RunTrajectory(c, &shot_rng).ExpectationDiagonal(diagonal);
  }
  return total / trajectories;
}

uint64_t ApplyReadoutFlips(uint64_t z, int num_qubits, double p, Rng* rng) {
  for (int q = 0; p > 0.0 && q < num_qubits; ++q) {
    if (rng->Bernoulli(p)) z ^= uint64_t{1} << q;
  }
  return z;
}

DensityMatrix EvolveDensityMatrix(const circuit::Circuit& c,
                                  const NoiseModel& model) {
  DensityMatrix rho(c.num_qubits());
  const double pauli_total = model.pauli_px + model.pauli_py + model.pauli_pz;
  for (const circuit::Gate& gate : c.gates()) {
    rho.ApplyGate(gate);
    const double depol =
        gate.qubits.size() == 1 ? model.depolarizing_1q : model.depolarizing_2q;
    // Same channel order per operand qubit as RunTrajectory.
    for (int q : gate.qubits) {
      if (depol > 0.0) rho.ApplyKraus1Q(DepolarizingKraus(depol), q);
      if (pauli_total > 0.0) {
        rho.ApplyKraus1Q(
            PauliKraus(model.pauli_px, model.pauli_py, model.pauli_pz), q);
      }
      if (model.amplitude_damping > 0.0) {
        rho.ApplyKraus1Q(AmplitudeDampingKraus(model.amplitude_damping), q);
      }
      if (model.phase_damping > 0.0) {
        rho.ApplyKraus1Q(PhaseDampingKraus(model.phase_damping), q);
      }
    }
  }
  return rho;
}

std::vector<linalg::Matrix> DepolarizingKraus(double p) {
  QDM_CHECK(p >= 0.0 && p <= 1.0);
  using linalg::Matrix;
  const double k0 = std::sqrt(1.0 - p);
  const double kp = std::sqrt(p / 3.0);
  Matrix i = circuit::SingleQubitMatrix(circuit::GateKind::kI, {});
  Matrix x = circuit::SingleQubitMatrix(circuit::GateKind::kX, {});
  Matrix y = circuit::SingleQubitMatrix(circuit::GateKind::kY, {});
  Matrix z = circuit::SingleQubitMatrix(circuit::GateKind::kZ, {});
  return {i * Complex(k0, 0), x * Complex(kp, 0), y * Complex(kp, 0),
          z * Complex(kp, 0)};
}

std::vector<linalg::Matrix> PauliKraus(double px, double py, double pz) {
  QDM_CHECK(px >= 0.0 && py >= 0.0 && pz >= 0.0 && px + py + pz <= 1.0);
  using linalg::Matrix;
  Matrix i = circuit::SingleQubitMatrix(circuit::GateKind::kI, {});
  return {i * Complex(std::sqrt(1.0 - px - py - pz), 0),
          PauliMatrix(0) * Complex(std::sqrt(px), 0),
          PauliMatrix(1) * Complex(std::sqrt(py), 0),
          PauliMatrix(2) * Complex(std::sqrt(pz), 0)};
}

std::vector<linalg::Matrix> AmplitudeDampingKraus(double gamma) {
  QDM_CHECK(gamma >= 0.0 && gamma <= 1.0);
  linalg::Matrix k0{{Complex(1, 0), Complex(0, 0)},
                    {Complex(0, 0), Complex(std::sqrt(1.0 - gamma), 0)}};
  linalg::Matrix k1{{Complex(0, 0), Complex(std::sqrt(gamma), 0)},
                    {Complex(0, 0), Complex(0, 0)}};
  return {k0, k1};
}

std::vector<linalg::Matrix> PhaseDampingKraus(double lambda) {
  QDM_CHECK(lambda >= 0.0 && lambda <= 1.0);
  linalg::Matrix k0{{Complex(1, 0), Complex(0, 0)},
                    {Complex(0, 0), Complex(std::sqrt(1.0 - lambda), 0)}};
  linalg::Matrix k1{{Complex(0, 0), Complex(0, 0)},
                    {Complex(0, 0), Complex(std::sqrt(lambda), 0)}};
  return {k0, k1};
}

}  // namespace sim
}  // namespace qdm
