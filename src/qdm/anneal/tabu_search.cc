#include "qdm/anneal/tabu_search.h"

#include <algorithm>
#include <optional>

#include "qdm/anneal/simulated_annealing.h"

namespace qdm {
namespace anneal {

Result<SampleSet> TabuSearch::Solve(const Qubo& qubo,
                                    const SolverOptions& options) {
  QDM_RETURN_IF_ERROR(ValidateSolverOptions(options));
  std::optional<Rng> local;
  Rng* rng = ResolveSolverRng(options, &local);
  const QuboAdjacency adj(qubo);
  const int n = adj.num_variables();
  const int max_iterations = options.max_iterations > 0 ? options.max_iterations
                                                        : kDefaultMaxIterations;
  const int tenure =
      options.tenure > 0 ? options.tenure : std::min(20, n / 4 + 1);

  SampleSet result;
  for (int read = 0; read < options.num_reads; ++read) {
    SpinMasks spins;
    double energy = adj.RandomSpins(rng, &spins);
    SpinMasks best = spins;
    double best_energy = energy;

    std::vector<int> tabu_until(n, -1);
    for (int iter = 0; iter < max_iterations; ++iter) {
      // The best allowed flip: not tabu, or tabu but improving on the
      // incumbent (aspiration); the first of equal deltas wins. Written as
      // selects, so the scan has no data-dependent branch.
      int chosen = -1;
      double chosen_delta = 0.0;
      for (int i = 0; i < n; ++i) {
        const double delta = adj.FlipDelta(spins.data(), i);
        const bool tabu = tabu_until[i] > iter;
        const bool allowed = !tabu || energy + delta < best_energy;
        const bool take = allowed && (chosen == -1 || delta < chosen_delta);
        chosen = take ? i : chosen;
        chosen_delta = take ? delta : chosen_delta;
      }
      if (chosen == -1) break;  // Everything tabu: restart would be needed.
      spins[chosen] = ~spins[chosen];
      energy += chosen_delta;
      // Capped at the budget, where "tabu for the rest of the run" already
      // holds: iter + tenure would overflow for tenures near INT_MAX.
      tabu_until[chosen] = iter + std::min(tenure, max_iterations - iter);
      if (energy < best_energy) {
        best_energy = energy;
        best = spins;
      }
    }
    result.Add(Sample{ToAssignment(best), best_energy, 0.0});
  }
  return result;
}

}  // namespace anneal
}  // namespace qdm
