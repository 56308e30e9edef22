#include "qdm/anneal/exact_solver.h"

#include "qdm/anneal/simulated_annealing.h"
#include "qdm/common/check.h"

namespace qdm {
namespace anneal {

Sample ExactSolver::Solve(const Qubo& qubo) {
  const int n = qubo.num_variables();
  QDM_CHECK_LE(n, 30) << "ExactSolver enumerates 2^n assignments";
  const QuboAdjacency adj(qubo);

  double energy = adj.Energy(Assignment(n, 0));
  SpinMasks x(n, 0);
  SpinMasks best = x;
  double best_energy = energy;

  // Gray-code walk: step k flips bit ctz(k).
  const uint64_t total = uint64_t{1} << n;
  for (uint64_t k = 1; k < total; ++k) {
    const int bit = __builtin_ctzll(k);
    energy += adj.FlipDelta(x.data(), bit);
    x[bit] = ~x[bit];
    if (energy < best_energy) {
      best_energy = energy;
      best = x;
    }
  }
  return Sample{ToAssignment(best), best_energy, 0.0};
}

SampleSet ExactSolver::SampleQubo(const Qubo& qubo, int /*num_reads*/,
                              Rng* /*rng*/) {
  SampleSet set;
  set.Add(Solve(qubo));
  return set;
}

}  // namespace anneal
}  // namespace qdm
