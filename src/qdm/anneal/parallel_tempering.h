#ifndef QDM_ANNEAL_PARALLEL_TEMPERING_H_
#define QDM_ANNEAL_PARALLEL_TEMPERING_H_

#include <string>

#include "qdm/anneal/solver.h"

namespace qdm {
namespace anneal {

/// Replica-exchange Monte Carlo (parallel tempering). Runs `num_replicas`
/// Metropolis chains at a geometric ladder of temperatures and proposes
/// replica swaps every `swap_interval` sweeps. Stronger than plain SA on
/// rugged QUBO landscapes (frustrated penalties), at higher cost; serves as
/// the "well-tuned classical heuristic" baseline in the solver-quality
/// benches. The ladder's ends are BetaRange's; num_replicas 1 leaves no
/// replica to exchange with and is InvalidArgument.
class ParallelTempering : public QuboSolver {
 public:
  static constexpr int kDefaultReplicas = 8;
  static constexpr int kDefaultSweeps = 200;
  static constexpr int kDefaultSwapInterval = 5;

  Result<SampleSet> Solve(const Qubo& qubo,
                          const SolverOptions& options) override;
  std::string name() const override { return "parallel_tempering"; }
};

}  // namespace anneal
}  // namespace qdm

#endif  // QDM_ANNEAL_PARALLEL_TEMPERING_H_
