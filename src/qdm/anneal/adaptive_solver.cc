#include "qdm/anneal/adaptive_solver.h"

#include <memory>

#include "qdm/common/strings.h"

namespace qdm {
namespace anneal {

std::string FormatAdaptiveDecision(const std::string& phase, int arm,
                                   const std::string& member) {
  return StrFormat("%s:%d:%s", phase.c_str(), arm, member.c_str());
}

Result<SampleSet> ReplayAdaptiveDecision(
    const std::string& decision, const Qubo& qubo,
    const SolverOptions& instance_options) {
  const auto malformed = [&decision] {
    return Status::InvalidArgument(StrFormat(
        "adaptive decision '%s' must have the form '<phase>:<arm>:<member>' "
        "with phase 'explore' or 'commit' and a non-negative arm index",
        decision.c_str()));
  };
  const size_t first = decision.find(':');
  if (first == std::string::npos) return malformed();
  const size_t second = decision.find(':', first + 1);
  if (second == std::string::npos || second + 1 >= decision.size()) {
    return malformed();
  }
  const std::string phase = decision.substr(0, first);
  if (phase != "explore" && phase != "commit") return malformed();
  const std::string arm_token = decision.substr(first + 1, second - first - 1);
  if (arm_token.empty()) return malformed();
  size_t arm = 0;
  for (char c : arm_token) {
    if (c < '0' || c > '9') return malformed();
    arm = arm * 10 + static_cast<size_t>(c - '0');
  }
  const std::string member = decision.substr(second + 1);
  QDM_ASSIGN_OR_RETURN(std::unique_ptr<QuboSolver> solver,
                       SolverRegistry::Global().Create(member));
  // The one replay rule (see the header): the recorded member ran with the
  // arm's derived seed, in both phases.
  QDM_ASSIGN_OR_RETURN(
      SampleSet samples,
      solver->Solve(qubo, DeriveBatchOptions(instance_options, arm)));
  samples.set_decision(decision);
  return samples;
}

}  // namespace anneal
}  // namespace qdm
