#include "qdm/nonlocal/magic_square.h"

#include <algorithm>

#include "qdm/circuit/circuit.h"
#include "qdm/common/check.h"
#include "qdm/sim/pauli.h"
#include "qdm/sim/statevector.h"

namespace qdm {
namespace nonlocal {

namespace {

// The grid of two-qubit Pauli observables. Every row is a commuting triple
// with product +I; columns multiply to +I, +I, -I, which is exactly the
// parity inconsistency that makes the game classically unwinnable.
constexpr const char* kGrid[3][3] = {
    {"XI", "IX", "XX"},
    {"IZ", "ZI", "ZZ"},
    {"XZ", "ZX", "YY"},
};

/// Required product of Alice's row signs (always +1 for this grid).
constexpr int kRowProduct[3] = {+1, +1, +1};
/// Required product of Bob's column signs.
constexpr int kColProduct[3] = {+1, +1, -1};

}  // namespace

std::string MagicSquareObservable(int row, int col) {
  QDM_CHECK(row >= 0 && row < 3 && col >= 0 && col < 3);
  return kGrid[row][col];
}

int MagicSquareSign(int row, int col) {
  QDM_CHECK(row >= 0 && row < 3 && col >= 0 && col < 3);
  return +1;  // All signs are carried by the column-product requirement.
}

double ClassicalValueMagicSquare() {
  // A deterministic Alice strategy assigns each row a sign triple with the
  // required product; 4 choices per row. Same for Bob's columns.
  auto triples_with_product = [](int product) {
    std::vector<std::array<int, 3>> triples;
    for (int mask = 0; mask < 8; ++mask) {
      std::array<int, 3> t{(mask & 1) ? -1 : 1, (mask & 2) ? -1 : 1,
                           (mask & 4) ? -1 : 1};
      if (t[0] * t[1] * t[2] == product) triples.push_back(t);
    }
    return triples;
  };

  std::array<std::vector<std::array<int, 3>>, 3> alice_rows;
  std::array<std::vector<std::array<int, 3>>, 3> bob_cols;
  for (int i = 0; i < 3; ++i) {
    alice_rows[i] = triples_with_product(kRowProduct[i]);
    bob_cols[i] = triples_with_product(kColProduct[i]);
  }

  double best = 0.0;
  // 4^3 strategies per player.
  for (int a0 = 0; a0 < 4; ++a0) {
    for (int a1 = 0; a1 < 4; ++a1) {
      for (int a2 = 0; a2 < 4; ++a2) {
        const std::array<const std::array<int, 3>*, 3> alice{
            &alice_rows[0][a0], &alice_rows[1][a1], &alice_rows[2][a2]};
        for (int b0 = 0; b0 < 4; ++b0) {
          for (int b1 = 0; b1 < 4; ++b1) {
            for (int b2 = 0; b2 < 4; ++b2) {
              const std::array<const std::array<int, 3>*, 3> bob{
                  &bob_cols[0][b0], &bob_cols[1][b1], &bob_cols[2][b2]};
              int wins = 0;
              for (int r = 0; r < 3; ++r) {
                for (int c = 0; c < 3; ++c) {
                  if ((*alice[r])[c] == (*bob[c])[r]) ++wins;
                }
              }
              best = std::max(best, wins / 9.0);
            }
          }
        }
      }
    }
  }
  return best;
}

MagicSquareRound PlayMagicSquareRound(int row, int col, Rng* rng) {
  QDM_CHECK(row >= 0 && row < 3 && col >= 0 && col < 3);
  // Two Bell pairs: Alice holds qubits {0, 1}, Bob {2, 3}; pairs (0,2), (1,3).
  circuit::Circuit prep(4);
  prep.H(0).CX(0, 2).H(1).CX(1, 3);
  sim::Statevector state = sim::RunCircuit(prep);

  MagicSquareRound result;
  // Alice measures her row's three commuting observables on qubits {0, 1}.
  for (int c = 0; c < 3; ++c) {
    result.alice_signs[c] = sim::MeasurePauliString(
        &state, MagicSquareObservable(row, c), {0, 1}, rng);
  }
  // Bob measures his column's observables on qubits {2, 3}. For this grid
  // every observable is transpose-symmetric as a two-qubit operator (X and Z
  // are symmetric; Y appears only as the pair YY, whose transpose signs
  // cancel), so Bob measures the identical strings and the Bell identity
  // (M (x) I)|Phi+> = (I (x) M^T)|Phi+> forces agreement on the shared cell.
  for (int r = 0; r < 3; ++r) {
    result.bob_signs[r] = sim::MeasurePauliString(
        &state, MagicSquareObservable(r, col), {2, 3}, rng);
  }

  const int alice_product =
      result.alice_signs[0] * result.alice_signs[1] * result.alice_signs[2];
  const int bob_product =
      result.bob_signs[0] * result.bob_signs[1] * result.bob_signs[2];
  result.won = alice_product == kRowProduct[row] &&
               bob_product == kColProduct[col] &&
               result.alice_signs[col] == result.bob_signs[row];
  return result;
}

double PlayMagicSquareQuantum(int rounds, Rng* rng) {
  QDM_CHECK_GT(rounds, 0);
  int wins = 0;
  for (int round = 0; round < rounds; ++round) {
    const int row = static_cast<int>(rng->UniformInt(0, 2));
    const int col = static_cast<int>(rng->UniformInt(0, 2));
    if (PlayMagicSquareRound(row, col, rng).won) ++wins;
  }
  return static_cast<double>(wins) / rounds;
}

}  // namespace nonlocal
}  // namespace qdm
