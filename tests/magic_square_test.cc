#include <gtest/gtest.h>

#include "qdm/circuit/circuit.h"
#include "qdm/common/rng.h"
#include "qdm/nonlocal/magic_square.h"
#include "qdm/sim/pauli.h"

namespace qdm {
namespace nonlocal {
namespace {

TEST(PauliMeasurementTest, ExpectationsOnBellState) {
  circuit::Circuit c(2);
  c.H(0).CX(0, 1);
  sim::Statevector bell = sim::RunCircuit(c);
  EXPECT_NEAR(sim::PauliExpectation(bell, "ZZ", {0, 1}), 1.0, 1e-12);
  EXPECT_NEAR(sim::PauliExpectation(bell, "XX", {0, 1}), 1.0, 1e-12);
  EXPECT_NEAR(sim::PauliExpectation(bell, "YY", {0, 1}), -1.0, 1e-12);
  EXPECT_NEAR(sim::PauliExpectation(bell, "ZI", {0, 1}), 0.0, 1e-12);
}

TEST(PauliMeasurementTest, MeasurementCollapsesConsistently) {
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    circuit::Circuit c(2);
    c.H(0).CX(0, 1);
    sim::Statevector state = sim::RunCircuit(c);
    // ZZ on Phi+ is deterministic +1; repeating it must agree.
    const int first = sim::MeasurePauliString(&state, "ZZ", {0, 1}, &rng);
    const int second = sim::MeasurePauliString(&state, "ZZ", {0, 1}, &rng);
    EXPECT_EQ(first, 1);
    EXPECT_EQ(second, first);
    EXPECT_NEAR(state.NormSquared(), 1.0, 1e-9);
  }
}

TEST(PauliMeasurementTest, RandomObservableStatisticsMatchExpectation) {
  Rng rng(5);
  circuit::Circuit c(1);
  c.H(0).T(0);
  sim::Statevector base = sim::RunCircuit(c);
  const double expectation = sim::PauliExpectation(base, "X", {0});
  double total = 0;
  const int kTrials = 20000;
  for (int t = 0; t < kTrials; ++t) {
    sim::Statevector state = base;
    total += sim::MeasurePauliString(&state, "X", {0}, &rng);
  }
  EXPECT_NEAR(total / kTrials, expectation, 0.02);
}

TEST(MagicSquareTest, GridRowsCommuteAndMultiplyToIdentity) {
  // Verified numerically: applying a row's three observables in sequence to
  // any state returns the state (product == +I).
  Rng rng(7);
  for (int row = 0; row < 3; ++row) {
    circuit::Circuit c(2);
    c.H(0).RY(1, 0.7).CX(0, 1).T(0);
    sim::Statevector original = sim::RunCircuit(c);
    sim::Statevector transformed = original;
    for (int col = 0; col < 3; ++col) {
      sim::ApplyPauliString(&transformed, MagicSquareObservable(row, col),
                            {0, 1});
    }
    EXPECT_NEAR(transformed.FidelityWith(original), 1.0, 1e-9) << "row " << row;
    EXPECT_NEAR((transformed.InnerProduct(original)).real(), 1.0, 1e-9)
        << "row " << row << " must be +I, not -I";
  }
}

TEST(MagicSquareTest, ColumnsCarryTheParityTwist) {
  // Columns multiply to +I, +I, -I: the last column's product flips states.
  for (int col = 0; col < 3; ++col) {
    circuit::Circuit c(2);
    c.H(0).CX(0, 1).S(1);
    sim::Statevector original = sim::RunCircuit(c);
    sim::Statevector transformed = original;
    for (int row = 0; row < 3; ++row) {
      sim::ApplyPauliString(&transformed, MagicSquareObservable(row, col),
                            {0, 1});
    }
    const double phase = transformed.InnerProduct(original).real();
    EXPECT_NEAR(phase, col == 2 ? -1.0 : 1.0, 1e-9) << "col " << col;
  }
}

TEST(MagicSquareTest, ClassicalValueIsEightNinths) {
  EXPECT_NEAR(ClassicalValueMagicSquare(), 8.0 / 9.0, 1e-12);
}

TEST(MagicSquareTest, QuantumStrategyIsPseudoTelepathic) {
  Rng rng(11);
  // Every round must be won -- not just on average.
  for (int row = 0; row < 3; ++row) {
    for (int col = 0; col < 3; ++col) {
      for (int repeat = 0; repeat < 30; ++repeat) {
        MagicSquareRound round = PlayMagicSquareRound(row, col, &rng);
        ASSERT_TRUE(round.won) << "cell (" << row << "," << col << ")";
      }
    }
  }
  EXPECT_DOUBLE_EQ(PlayMagicSquareQuantum(2000, &rng), 1.0);
}

TEST(MagicSquareTest, ParityConstraintsHoldPerRound) {
  Rng rng(13);
  for (int trial = 0; trial < 100; ++trial) {
    const int row = static_cast<int>(rng.UniformInt(0, 2));
    const int col = static_cast<int>(rng.UniformInt(0, 2));
    MagicSquareRound round = PlayMagicSquareRound(row, col, &rng);
    EXPECT_EQ(
        round.alice_signs[0] * round.alice_signs[1] * round.alice_signs[2], 1);
    const int expected_col_product = col == 2 ? -1 : 1;
    EXPECT_EQ(round.bob_signs[0] * round.bob_signs[1] * round.bob_signs[2],
              expected_col_product);
  }
}

}  // namespace
}  // namespace nonlocal
}  // namespace qdm
