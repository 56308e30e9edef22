#include "qdm/anneal/tabu_search.h"

#include <algorithm>
#include <optional>

#include "qdm/anneal/simulated_annealing.h"

namespace qdm {
namespace anneal {

namespace {

// One read from `*best`, whose energy is `energy`; `*best` ends at the best
// state the read visited.
void SearchOneRead(const QuboAdjacency& adj, int max_iterations, int tenure,
                   double energy, SpinMasks* best) {
  const int n = adj.num_variables();
  SpinMasks spins = *best;
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
      *best = spins;
    }
  }
}

}  // namespace

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

  // The reads run one group after another, each group's start states drawn
  // in read order before it searches; a group of one is the one-read loop.
  const int group_size = QuboAdjacency::ReadGroupSize(options.num_reads);
  SampleSet result;
  for (int first = 0; first < options.num_reads; first += group_size) {
    const int count = std::min(group_size, options.num_reads - first);
    SpinMasks spins[QuboAdjacency::kLanes];
    double energies[QuboAdjacency::kLanes];
    for (int j = 0; j < count; ++j) {
      energies[j] = adj.RandomSpins(rng, &spins[j]);
    }
    if (count == 1) {
      SearchOneRead(adj, max_iterations, tenure, energies[0], &spins[0]);
    } else {
      adj.TabuLanes(count, max_iterations, tenure, energies, spins);
    }
    for (int j = 0; j < count; ++j) result.Add(SampleOf(qubo, spins[j]));
  }
  return result;
}

}  // namespace anneal
}  // namespace qdm
