#ifndef QDM_ANNEAL_TABU_SEARCH_H_
#define QDM_ANNEAL_TABU_SEARCH_H_

#include <string>

#include "qdm/anneal/solver.h"

namespace qdm {
namespace anneal {

/// Deterministic-greedy tabu search over single-bit flips: always takes the
/// best non-tabu flip, allowing uphill moves to escape local minima; a flip
/// is tabu for `tenure` iterations unless it improves the incumbent
/// (aspiration). Classic strong classical QUBO heuristic (cf. qbsolv).
/// Reads max_iterations and tenure; tenure 0 means min(20, n/4 + 1), and a
/// tenure that outlasts the iteration budget keeps a flip tabu for the rest
/// of the run.
class TabuSearch : public QuboSolver {
 public:
  static constexpr int kDefaultMaxIterations = 500;

  Result<SampleSet> Solve(const Qubo& qubo,
                          const SolverOptions& options) override;
  std::string name() const override { return "tabu_search"; }
};

}  // namespace anneal
}  // namespace qdm

#endif  // QDM_ANNEAL_TABU_SEARCH_H_
