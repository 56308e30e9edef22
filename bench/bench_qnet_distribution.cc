// E11 -- Paper Fig. 1c and Sec I (248 km fiber entanglement distribution):
// the basic unit of a quantum internet is two end nodes plus a repeater.
// Regenerates the rate-vs-distance figure: direct generation decays
// exponentially with fiber length; a midpoint repeater (entanglement
// swapping) flattens the decay and overtakes beyond a crossover distance;
// fidelity degrades with swap count and memory wait. Also reports the
// purification trade-off (fidelity up, rate down).

#include <cstdio>

#include "qdm/common/rng.h"
#include "qdm/common/strings.h"
#include "qdm/common/table_printer.h"
#include "qdm/qnet/repeater.h"

int main() {
  qdm::Rng rng(2024);

  qdm::TablePrinter table({"distance km", "direct rate Hz", "1-repeater Hz",
                           "3-repeater Hz", "direct F", "1-rep F", "3-rep F"});
  for (double km : {25.0, 50.0, 100.0, 150.0, 200.0, 250.0}) {
    qdm::qnet::ChainConfig config;
    config.total_distance_km = km;
    config.memory_t_s = 0.5;

    auto run = [&](int repeaters) {
      config.num_repeaters = repeaters;
      return qdm::qnet::SimulateChain(config, /*target_pairs=*/200,
                                      /*max_seconds=*/1e9, &rng);
    };
    auto direct = run(0);
    auto one = run(1);
    auto three = run(3);
    table.AddRow({qdm::StrFormat("%.0f", km),
                  qdm::StrFormat("%.3g", direct.rate_hz),
                  qdm::StrFormat("%.3g", one.rate_hz),
                  qdm::StrFormat("%.3g", three.rate_hz),
                  qdm::StrFormat("%.3f", direct.mean_fidelity),
                  qdm::StrFormat("%.3f", one.mean_fidelity),
                  qdm::StrFormat("%.3f", three.mean_fidelity)});
  }
  std::printf(
      "E11: entanglement distribution rate and fidelity vs distance\n%s\n",
      table.ToString().c_str());

  // Purification ablation at 100 km, 1 repeater.
  qdm::qnet::ChainConfig config;
  config.total_distance_km = 100;
  config.num_repeaters = 1;
  config.link.initial_fidelity = 0.9;
  auto plain = qdm::qnet::SimulateChain(config, 300, 1e9, &rng);
  config.purify_segments = true;
  auto purified = qdm::qnet::SimulateChain(config, 300, 1e9, &rng);
  qdm::TablePrinter purify_table({"variant", "rate Hz", "mean fidelity"});
  purify_table.AddRow({"plain swap", qdm::StrFormat("%.3g", plain.rate_hz),
                       qdm::StrFormat("%.4f", plain.mean_fidelity)});
  purify_table.AddRow({"BBPSSW purified",
                       qdm::StrFormat("%.3g", purified.rate_hz),
                       qdm::StrFormat("%.4f", purified.mean_fidelity)});
  std::printf("Purification trade-off at 100 km (F0 = 0.9):\n%s\n",
              purify_table.ToString().c_str());
  std::printf(
      "Shape check: direct rate falls ~10x per 50 km (0.2 dB/km);\n"
      "repeaters overtake direct generation as distance grows but\n"
      "deliver lower fidelity; purification buys fidelity with "
      "rate.\n");
  return 0;
}
