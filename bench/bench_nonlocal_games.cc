// E8/E9/E10 -- Paper Examples II.1, IV.1, IV.2 and the GHZ discussion:
//   * |+> measures 50/50                      (Example II.1)
//   * Bell pair gives perfectly correlated outcomes (Example IV.1)
//   * CHSH: classical 0.75 vs quantum cos^2(pi/8) ~ 0.8536 (Example IV.2)
//   * GHZ: classical 0.75 vs quantum 1.0
// All classical bounds from exhaustive deterministic-strategy enumeration;
// quantum values exact + sampled.

#include <cmath>
#include <cstdio>

#include "qdm/circuit/circuit.h"
#include "qdm/common/rng.h"
#include "qdm/common/strings.h"
#include "qdm/common/table_printer.h"
#include "qdm/nonlocal/games.h"
#include "qdm/nonlocal/magic_square.h"
#include "qdm/sim/statevector.h"

int main() {
  qdm::Rng rng(2024);

  // Example II.1.
  qdm::circuit::Circuit plus(1);
  plus.H(0);
  qdm::sim::Statevector psi = qdm::sim::RunCircuit(plus);
  int ones = 0;
  for (int s = 0; s < 100000; ++s) {
    ones += static_cast<int>(psi.SampleBasisState(&rng));
  }
  std::printf("Example II.1: P(measure 1 | |+>) = %.4f (paper: 0.5)\n",
              ones / 100000.0);

  // Example IV.1.
  qdm::circuit::Circuit bell_circuit(2);
  bell_circuit.H(0).CX(0, 1);
  int correlated = 0;
  for (int s = 0; s < 100000; ++s) {
    const uint64_t z =
        qdm::sim::RunCircuit(bell_circuit).SampleBasisState(&rng);
    if (z == 0 || z == 3) ++correlated;
  }
  std::printf("Example IV.1: P(outcomes equal | Bell) = %.4f (paper: 1.0)\n\n",
              correlated / 100000.0);

  // CHSH and GHZ.
  qdm::TablePrinter table({"game", "classical (paper)", "classical (measured)",
                           "quantum (paper)", "quantum (exact)",
                           "quantum (sampled)"});
  {
    auto chsh = qdm::nonlocal::ChshGame();
    auto strategy = qdm::nonlocal::OptimalChshStrategy();
    table.AddRow(
        {"CHSH", "0.75",
         qdm::StrFormat("%.4f", qdm::nonlocal::ClassicalValueTwoPlayer(chsh)),
         "~0.85",
         qdm::StrFormat("%.6f",
                        qdm::nonlocal::QuantumValueTwoPlayer(chsh, strategy)),
         qdm::StrFormat("%.4f", qdm::nonlocal::PlayTwoPlayerGame(
                                    chsh, strategy, 200000, &rng))});
  }
  {
    auto ghz = qdm::nonlocal::GhzGame();
    auto strategy = qdm::nonlocal::OptimalGhzStrategy();
    table.AddRow(
        {"GHZ", "0.75",
         qdm::StrFormat("%.4f", qdm::nonlocal::ClassicalValueThreePlayer(ghz)),
         "1.0",
         qdm::StrFormat("%.6f",
                        qdm::nonlocal::QuantumValueThreePlayer(ghz, strategy)),
         qdm::StrFormat("%.4f", qdm::nonlocal::PlayThreePlayerGame(
                                    ghz, strategy, 200000, &rng))});
  }
  {
    // Extension: Mermin-Peres magic square (pseudo-telepathy; the natural
    // next entry in Sec IV-A's progression after CHSH and GHZ).
    table.AddRow(
        {"magic square", "8/9",
         qdm::StrFormat("%.4f", qdm::nonlocal::ClassicalValueMagicSquare()),
         "1.0", "1.000000",
         qdm::StrFormat("%.4f",
                        qdm::nonlocal::PlayMagicSquareQuantum(20000, &rng))});
  }
  std::printf("E9/E10: nonlocal game values\n%s\n", table.ToString().c_str());
  std::printf("cos^2(pi/8) = %.6f\n", std::pow(std::cos(M_PI / 8), 2));
  return 0;
}
