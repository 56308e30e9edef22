#include <gtest/gtest.h>

#include <cmath>

#include "qdm/circuit/circuit.h"
#include "qdm/sim/density_matrix.h"
#include "qdm/sim/noise.h"
#include "qdm/sim/statevector.h"

namespace qdm {
namespace sim {
namespace {

using circuit::Circuit;
using circuit::GateKind;
using circuit::SingleQubitMatrix;

Statevector BellPhiPlus() {
  Circuit c(2);
  c.H(0).CX(0, 1);
  return RunCircuit(c);
}

TEST(DensityMatrixTest, PureStateHasPurityOne) {
  DensityMatrix rho = DensityMatrix::FromStatevector(BellPhiPlus());
  EXPECT_NEAR(rho.Purity(), 1.0, 1e-12);
  EXPECT_NEAR(rho.FidelityWithPure(BellPhiPlus()), 1.0, 1e-12);
}

TEST(DensityMatrixTest, WernerStateFidelityIsParameter) {
  for (double f : {0.25, 0.5, 0.8, 1.0}) {
    DensityMatrix rho = DensityMatrix::WernerState(f);
    EXPECT_NEAR(rho.FidelityWithPure(BellPhiPlus()), f, 1e-12) << "F=" << f;
    EXPECT_NEAR(rho.matrix().Trace().real(), 1.0, 1e-12);
  }
}

TEST(DensityMatrixTest, WernerAtQuarterIsMaximallyMixed) {
  DensityMatrix rho = DensityMatrix::WernerState(0.25);
  EXPECT_NEAR(rho.Purity(), 0.25, 1e-12);
}

TEST(DensityMatrixTest, DepolarizingChannelShrinksPurity) {
  DensityMatrix rho = DensityMatrix::FromStatevector(BellPhiPlus());
  rho.ApplyKraus1Q(DepolarizingKraus(0.3), 0);
  EXPECT_LT(rho.Purity(), 1.0);
  EXPECT_NEAR(rho.matrix().Trace().real(), 1.0, 1e-12);
}

TEST(DensityMatrixTest, DepolarizingOnBellMatchesWernerAlgebra) {
  // Uniform depolarizing with probability p on one half of a Bell pair gives
  // a Werner state with F = 1 - 2p/3 (X,Y,Z each map Phi+ to an orthogonal
  // Bell state).
  const double p = 0.3;
  DensityMatrix rho = DensityMatrix::FromStatevector(BellPhiPlus());
  rho.ApplyKraus1Q(DepolarizingKraus(p), 0);
  EXPECT_NEAR(rho.FidelityWithPure(BellPhiPlus()), 1.0 - p, 1e-12);
}

TEST(DensityMatrixTest, PartialTraceOfBellIsMaximallyMixed) {
  DensityMatrix rho = DensityMatrix::FromStatevector(BellPhiPlus());
  DensityMatrix reduced = rho.PartialTrace({0});
  EXPECT_EQ(reduced.num_qubits(), 1);
  EXPECT_NEAR(reduced.matrix()(0, 0).real(), 0.5, 1e-12);
  EXPECT_NEAR(reduced.matrix()(1, 1).real(), 0.5, 1e-12);
  EXPECT_NEAR(std::abs(reduced.matrix()(0, 1)), 0.0, 1e-12);
  EXPECT_NEAR(reduced.Purity(), 0.5, 1e-12);
}

TEST(DensityMatrixTest, PartialTraceOfProductStateIsPure) {
  Circuit c(2);
  c.H(0);  // |+> (x) |0>
  DensityMatrix rho = DensityMatrix::FromStatevector(RunCircuit(c));
  DensityMatrix q0 = rho.PartialTrace({0});
  EXPECT_NEAR(q0.Purity(), 1.0, 1e-12);
  EXPECT_NEAR(q0.matrix()(0, 1).real(), 0.5, 1e-12);
}

TEST(DensityMatrixTest, UnitaryEvolutionMatchesStatevector) {
  Circuit c(2);
  c.H(0).CX(0, 1).RZ(1, 0.4).RY(0, 0.9);
  Statevector sv = RunCircuit(c);

  DensityMatrix rho(2);
  rho.ApplyUnitary1Q(SingleQubitMatrix(GateKind::kH, {}), 0);
  rho.ApplyGate(circuit::Gate{GateKind::kCX, {0, 1}, {}});
  rho.ApplyUnitary1Q(SingleQubitMatrix(GateKind::kRZ, {0.4}), 1);
  rho.ApplyUnitary1Q(SingleQubitMatrix(GateKind::kRY, {0.9}), 0);

  EXPECT_NEAR(rho.FidelityWithPure(sv), 1.0, 1e-12);
}

TEST(DensityMatrixTest, AmplitudeDampingDrivesToGround) {
  DensityMatrix rho(1);
  rho.ApplyUnitary1Q(SingleQubitMatrix(GateKind::kX, {}), 0);  // |1><1|
  rho.ApplyKraus1Q(AmplitudeDampingKraus(1.0), 0);
  EXPECT_NEAR(rho.matrix()(0, 0).real(), 1.0, 1e-12);
  EXPECT_NEAR(rho.ProbabilityOfOne(0), 0.0, 1e-12);
}

TEST(DensityMatrixTest, PhaseDampingKillsCoherence) {
  DensityMatrix rho(1);
  rho.ApplyUnitary1Q(SingleQubitMatrix(GateKind::kH, {}), 0);
  rho.ApplyKraus1Q(PhaseDampingKraus(1.0), 0);
  EXPECT_NEAR(std::abs(rho.matrix()(0, 1)), 0.0, 1e-12);
  // Populations preserved.
  EXPECT_NEAR(rho.ProbabilityOfOne(0), 0.5, 1e-12);
}

// -- Range checks -------------------------------------------------------------
//
// rho over n qubits is stored as a 2n-qubit vector, which would accept a
// qubit in [n, 2n) and act on the column register, so every entry point
// checks its qubits against n.

TEST(DensityMatrixDeathTest, QubitCountIsCheckedBeforeAllocation) {
  EXPECT_DEATH(DensityMatrix(0), "small systems");
  EXPECT_DEATH(DensityMatrix(11), "small systems");
  EXPECT_DEATH(DensityMatrix::FromStatevector(Statevector(11)),
               "small systems");
}

TEST(DensityMatrixDeathTest, ApplyGateChecksQubitsAgainstN) {
  DensityMatrix rho(2);
  EXPECT_DEATH(rho.ApplyGate(circuit::Gate{GateKind::kH, {2}, {}}),
               "qubit 2 is out of range for a 2-qubit density matrix");
  EXPECT_DEATH(rho.ApplyGate(circuit::Gate{GateKind::kCX, {0, 2}, {}}),
               "qubit 2 is out of range");
}

TEST(DensityMatrixDeathTest, ApplyKraus1QChecksQubitAgainstN) {
  DensityMatrix rho(2);
  EXPECT_DEATH(rho.ApplyKraus1Q(DepolarizingKraus(0.1), 2),
               "qubit 2 is out of range");
}

TEST(DensityMatrixDeathTest, ApplyUnitary1QChecksQubitAgainstN) {
  DensityMatrix rho(2);
  EXPECT_DEATH(rho.ApplyUnitary1Q(SingleQubitMatrix(GateKind::kX, {}), 2),
               "qubit 2 is out of range");
}

TEST(DensityMatrixDeathTest, ProbabilityOfOneChecksQubitAgainstN) {
  DensityMatrix rho(2);
  EXPECT_DEATH(rho.ProbabilityOfOne(2), "qubit 2 is out of range");
}

TEST(DensityMatrixDeathTest, PartialTraceChecksEveryKeptQubit) {
  DensityMatrix rho(2);
  EXPECT_DEATH(rho.PartialTrace({2}), "qubit 2 is out of range");
  EXPECT_DEATH(rho.PartialTrace({0, 2}), "qubit 2 is out of range");
  EXPECT_DEATH(rho.PartialTrace({-1}), "qubit -1 is out of range");
}

TEST(TrajectorySimulatorTest, NoiselessMatchesExact) {
  Circuit c(2);
  c.H(0).CX(0, 1);
  TrajectorySimulator noiseless{NoiseModel{}};
  Rng rng(3);
  auto counts = noiseless.Sample(c, 20000, &rng);
  EXPECT_NEAR(counts[0] / 20000.0, 0.5, 0.02);
  EXPECT_NEAR(counts[3] / 20000.0, 0.5, 0.02);
  EXPECT_EQ(counts.count(1), 0u);
}

TEST(TrajectorySimulatorTest, TrajectoryAverageMatchesChannel) {
  // Depolarizing trajectories on H|0> must converge to the density-matrix
  // channel's Z expectation: (1 - 4p/3) * <Z>_pure for one gate... verified
  // numerically against the DensityMatrix reference instead of a closed form.
  const double p = 0.2;
  Circuit c(1);
  c.H(0).T(0).H(0);

  // Reference: exact channel semantics.
  DensityMatrix rho(1);
  rho.ApplyUnitary1Q(SingleQubitMatrix(GateKind::kH, {}), 0);
  rho.ApplyKraus1Q(DepolarizingKraus(p), 0);
  rho.ApplyUnitary1Q(SingleQubitMatrix(GateKind::kT, {}), 0);
  rho.ApplyKraus1Q(DepolarizingKraus(p), 0);
  rho.ApplyUnitary1Q(SingleQubitMatrix(GateKind::kH, {}), 0);
  rho.ApplyKraus1Q(DepolarizingKraus(p), 0);
  const double exact_p1 = rho.ProbabilityOfOne(0);

  NoiseModel model;
  model.depolarizing_1q = p;
  TrajectorySimulator sim(model);
  Rng rng(17);
  double p1 = 0.0;
  const int kTrajectories = 20000;
  for (int t = 0; t < kTrajectories; ++t) {
    p1 += sim.RunTrajectory(c, &rng).ProbabilityOfOne(0);
  }
  p1 /= kTrajectories;
  EXPECT_NEAR(p1, exact_p1, 0.01);
}

TEST(TrajectorySimulatorTest, ReadoutFlipRandomizesOutput) {
  Circuit c(1);  // Identity circuit: always measures 0 without noise.
  c.I(0);
  NoiseModel model;
  model.readout_flip = 0.25;
  TrajectorySimulator sim(model);
  Rng rng(29);
  auto counts = sim.Sample(c, 20000, &rng);
  EXPECT_NEAR(counts[1] / 20000.0, 0.25, 0.02);
}

// -- FromStatevector <-> trajectory cross-checks -----------------------------

/// Entangling 4-qubit circuit reused by the cross-check tests below.
Circuit CrossCheckCircuit() {
  Circuit c(4);
  c.H(0).CX(0, 1).RY(2, 0.9).CX(1, 2).RZZ(2, 3, 0.6).RX(3, 1.2).CZ(0, 3);
  return c;
}

/// FromStatevector(RunCircuit(c)) and the noiseless density-matrix /
/// trajectory evolutions must agree regardless of how the state-vector
/// kernels are scheduled. serial_cutoff = 1 forces the parallel kernels even
/// on 16-amplitude states, so thread count genuinely varies the execution.
void CheckStatevectorTrajectoryAgreement(int num_threads) {
  const ExecutionConfig saved = Statevector::DefaultExecutionConfig();
  ExecutionConfig config = saved;
  config.num_threads = num_threads;
  config.serial_cutoff = 1;
  Statevector::SetDefaultExecutionConfig(config);

  const Circuit c = CrossCheckCircuit();
  const Statevector exact = RunCircuit(c);
  const DensityMatrix pure = DensityMatrix::FromStatevector(exact);

  // Noiseless EvolveDensityMatrix is exactly |psi><psi| of the statevector.
  const DensityMatrix evolved = EvolveDensityMatrix(c, NoiseModel{});
  EXPECT_TRUE(evolved.matrix().ApproxEqual(pure.matrix(), 1e-10))
      << num_threads << " threads";
  EXPECT_NEAR(evolved.FidelityWithPure(exact), 1.0, 1e-10)
      << num_threads << " threads";

  // A noiseless trajectory is the statevector itself.
  TrajectorySimulator noiseless{NoiseModel{}};
  Rng rng(31);
  const Statevector trajectory = noiseless.RunTrajectory(c, &rng);
  EXPECT_NEAR(
      DensityMatrix::FromStatevector(trajectory).FidelityWithPure(exact), 1.0,
      1e-10)
      << num_threads << " threads";

  // Under noise, the trajectory-ensemble fidelity against the evolved
  // density matrix converges: mean_t <t| rho |t> -> Tr(rho^2) as the
  // trajectory mixture reproduces rho.
  NoiseModel model;
  model.depolarizing_1q = 0.06;
  model.amplitude_damping = 0.08;
  const DensityMatrix rho = EvolveDensityMatrix(c, model);
  TrajectorySimulator sim(model);
  Rng noisy_rng(37);
  double overlap = 0.0;
  const int kTrajectories = 4000;
  for (int t = 0; t < kTrajectories; ++t) {
    overlap += rho.FidelityWithPure(sim.RunTrajectory(c, &noisy_rng));
  }
  overlap /= kTrajectories;
  EXPECT_NEAR(overlap, rho.Purity(), 0.02) << num_threads << " threads";

  Statevector::SetDefaultExecutionConfig(saved);
}

TEST(TrajectorySimulatorTest, MatchesFromStatevectorSingleThreaded) {
  CheckStatevectorTrajectoryAgreement(1);
}

TEST(TrajectorySimulatorTest, MatchesFromStatevectorEightThreads) {
  CheckStatevectorTrajectoryAgreement(8);
}

}  // namespace
}  // namespace sim
}  // namespace qdm
