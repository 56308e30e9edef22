#ifndef QDM_ANNEAL_EXACT_SOLVER_H_
#define QDM_ANNEAL_EXACT_SOLVER_H_

#include <string>

#include "qdm/anneal/solver.h"

namespace qdm {
namespace anneal {

/// Exhaustive ground-truth solver. Enumerates all 2^n assignments in Gray-code
/// order (O(deg) incremental energy updates), so it is practical up to ~28
/// variables. Every solver-quality experiment uses this as the optimum
/// reference on small instances.
class ExactSolver : public QuboSolver {
 public:
  static constexpr int kMaxVariables = 30;

  /// Returns the global optimum (and only it): num_reads and the rng are
  /// ignored. More than kMaxVariables variables is InvalidArgument.
  Result<SampleSet> Solve(const Qubo& qubo,
                          const SolverOptions& options) override;
  std::string name() const override { return "exact"; }

  /// Convenience: ground-state energy and an optimal assignment. Aborts
  /// above kMaxVariables.
  static Sample Solve(const Qubo& qubo);
};

}  // namespace anneal
}  // namespace qdm

#endif  // QDM_ANNEAL_EXACT_SOLVER_H_
