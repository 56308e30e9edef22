#ifndef QDM_ANNEAL_ADAPTIVE_SOLVER_H_
#define QDM_ANNEAL_ADAPTIVE_SOLVER_H_

#include <string>

#include "qdm/anneal/solver.h"

namespace qdm {
namespace anneal {

/// The adaptive:* decision record. Every SampleSet an "adaptive:<b1>+<b2>"
/// portfolio (PortfolioSolver, portfolio_solver.h) returns carries
/// "<phase>:<arm>:<member>" in SampleSet::decision — phase "explore" (the
/// race the member won) or "commit" (the member ran alone), arm its index
/// in the portfolio. The record rides the wire format backward-compatibly
/// and is sufficient for bit-exact replay of the solve WITHOUT re-running
/// the race. The format is written and parsed only here.
std::string FormatAdaptiveDecision(const std::string& phase, int arm,
                                   const std::string& member);

/// Re-runs the solve a recorded decision string describes, bit-identically
/// and WITHOUT racing: parses "<phase>:<arm>:<member>", resolves `member`
/// in the registry, and solves with DeriveBatchOptions(instance_options,
/// arm) — `instance_options` being exactly the options the adaptive solve
/// saw for that instance (for batch instance i through SolveBatchParallel:
/// DeriveBatchOptions(batch_options, i)). The returned SampleSet — samples
/// AND decision field — is bit-identical to the recorded one, for explore
/// decisions too (a race returns the winning member's SampleSet verbatim).
/// Malformed decision strings are InvalidArgument; the member resolves
/// through the registry's normal error taxonomy.
Result<SampleSet> ReplayAdaptiveDecision(const std::string& decision,
                                         const Qubo& qubo,
                                         const SolverOptions& instance_options);

}  // namespace anneal
}  // namespace qdm

#endif  // QDM_ANNEAL_ADAPTIVE_SOLVER_H_
