#include "qdm/anneal/exact_solver.h"

#include "qdm/anneal/simulated_annealing.h"
#include "qdm/common/check.h"
#include "qdm/common/strings.h"

namespace qdm {
namespace anneal {

Sample ExactSolver::Solve(const Qubo& qubo) {
  const int n = qubo.num_variables();
  QDM_CHECK_LE(n, kMaxVariables) << "ExactSolver enumerates 2^n assignments";
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

Result<SampleSet> ExactSolver::Solve(const Qubo& qubo,
                                     const SolverOptions& options) {
  QDM_RETURN_IF_ERROR(ValidateSolverOptions(options));
  if (qubo.num_variables() > kMaxVariables) {
    return Status::InvalidArgument(StrFormat(
        "exact solver enumerates 2^n assignments; %d variables exceed the "
        "%d-variable limit",
        qubo.num_variables(), kMaxVariables));
  }
  SampleSet set;
  set.Add(Solve(qubo));
  return set;
}

}  // namespace anneal
}  // namespace qdm
