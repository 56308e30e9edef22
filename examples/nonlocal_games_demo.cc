// The nonlocal games of paper Sec IV-A: CHSH (Example IV.2) and GHZ, with
// classical bounds from exhaustive strategy enumeration and quantum values
// from simulated entangled strategies.
//
// Build & run:  ./build/examples/nonlocal_games_demo

#include <cstdio>

#include "qdm/common/rng.h"
#include "qdm/common/strings.h"
#include "qdm/common/table_printer.h"
#include "qdm/nonlocal/games.h"

int main() {
  qdm::Rng rng(3);
  qdm::TablePrinter table(
      {"game", "classical value", "quantum value", "sampled (100k rounds)"});

  {
    qdm::nonlocal::TwoPlayerGame chsh = qdm::nonlocal::ChshGame();
    auto strategy = qdm::nonlocal::OptimalChshStrategy();
    table.AddRow(
        {"CHSH",
         qdm::StrFormat("%.4f", qdm::nonlocal::ClassicalValueTwoPlayer(chsh)),
         qdm::StrFormat("%.4f",
                        qdm::nonlocal::QuantumValueTwoPlayer(chsh, strategy)),
         qdm::StrFormat("%.4f", qdm::nonlocal::PlayTwoPlayerGame(
                                    chsh, strategy, 100000, &rng))});
  }
  {
    qdm::nonlocal::ThreePlayerGame ghz = qdm::nonlocal::GhzGame();
    auto strategy = qdm::nonlocal::OptimalGhzStrategy();
    table.AddRow(
        {"GHZ",
         qdm::StrFormat("%.4f", qdm::nonlocal::ClassicalValueThreePlayer(ghz)),
         qdm::StrFormat("%.4f",
                        qdm::nonlocal::QuantumValueThreePlayer(ghz, strategy)),
         qdm::StrFormat("%.4f", qdm::nonlocal::PlayThreePlayerGame(
                                    ghz, strategy, 100000, &rng))});
  }
  std::printf("%s\n", table.ToString().c_str());

  // Show that the CHSH quantum advantage is *discovered* by optimizing
  // measurement angles over a Bell state, not hard-coded.
  auto optimized = qdm::nonlocal::OptimizeXZAngles(qdm::nonlocal::ChshGame(),
                                                   /*restarts=*/6, &rng);
  std::printf(
      "angle optimization over the Bell state reached %.4f "
      "(Tsirelson bound cos^2(pi/8) = 0.8536)\n",
      -optimized.value);
  return 0;
}
