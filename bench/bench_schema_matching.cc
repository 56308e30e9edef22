// E6 -- Table I row [28] (Fritsch & Scherzinger, VLDB'23): schema matching as
// QUBO on quantum hardware. Regenerates the quality table: QUBO ground truth
// (exact solver), annealing, and QAOA against the Hungarian optimum and the
// greedy baseline, over instance sizes and noise levels.

#include <cstdio>

#include "qdm/anneal/solver.h"
#include "qdm/common/rng.h"
#include "qdm/common/strings.h"
#include "qdm/common/table_printer.h"
#include "qdm/qopt/schema_matching.h"

int main() {
  qdm::Rng rng(2024);
  qdm::TablePrinter table({"attrs", "noise", "hungarian", "qubo-exact",
                           "anneal", "qaoa", "greedy"});

  for (int n : {3, 4, 5, 6}) {
    for (double noise : {0.05, 0.2}) {
      const int kSeeds = 6;
      double hungarian = 0, exact = 0, anneal = 0, qaoa_sim = 0, greedy = 0;
      for (int seed = 0; seed < kSeeds; ++seed) {
        auto problem = qdm::qopt::GenerateSchemaMatching(n, n, noise, &rng);
        hungarian += qdm::qopt::HungarianMatching(problem).total_similarity;
        greedy += qdm::qopt::GreedyMatching(problem).total_similarity;

        // All QUBO arms dispatch by name through the QuboSolver registry.
        if (problem.num_variables() <= 25) {
          qdm::anneal::SolverOptions exact_options;
          exact_options.num_reads = 1;
          auto ground =
              qdm::qopt::SolveSchemaMatching(problem, "exact", exact_options);
          QDM_CHECK(ground.ok()) << ground.status();
          exact += ground->total_similarity;
        }

        qdm::anneal::SolverOptions anneal_options;
        anneal_options.num_sweeps = 600;
        anneal_options.num_reads = 20;
        anneal_options.rng = &rng;
        auto decoded = qdm::qopt::SolveSchemaMatching(
            problem, "simulated_annealing", anneal_options);
        QDM_CHECK(decoded.ok()) << decoded.status();
        anneal += decoded->feasible ? decoded->total_similarity : 0.0;

        // QAOA only on the smallest instances (n*n simulated qubits).
        if (n <= 4) {
          qdm::anneal::SolverOptions qaoa_options;
          qaoa_options.layers = 2;
          qaoa_options.restarts = 2;
          qaoa_options.num_reads = 30;
          qaoa_options.rng = &rng;
          auto qaoa_decoded =
              qdm::qopt::SolveSchemaMatching(problem, "qaoa", qaoa_options);
          QDM_CHECK(qaoa_decoded.ok()) << qaoa_decoded.status();
          qaoa_sim +=
              qaoa_decoded->feasible ? qaoa_decoded->total_similarity : 0.0;
        }
      }
      table.AddRow({qdm::StrFormat("%dx%d", n, n),
                    qdm::StrFormat("%.2f", noise),
                    qdm::StrFormat("%.3f", hungarian / kSeeds),
                    n * n <= 25 ? qdm::StrFormat("%.3f", exact / kSeeds) : "-",
                    qdm::StrFormat("%.3f", anneal / kSeeds),
                    n <= 4 ? qdm::StrFormat("%.3f", qaoa_sim / kSeeds) : "-",
                    qdm::StrFormat("%.3f", greedy / kSeeds)});
    }
  }
  std::printf("E6: schema matching total similarity (higher is better)\n%s\n",
              table.ToString().c_str());
  std::printf(
      "Shape check: qubo-exact == hungarian (the encoding is exact);\n"
      "anneal tracks it closely; greedy trails on noisy instances.\n");
  return 0;
}
