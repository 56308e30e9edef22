// Registers the gate-based backends (Figure 2's second arm) with the
// anneal::SolverRegistry so applications can dispatch "qaoa" / "vqe" /
// "grover_min" by name, interchangeably with the annealing backends.
// These names also compose with the embedded hardware-topology family
// (anneal/embedded_solver.cc): "embedded:qaoa:chimera:1x1x4" resolves via
// the registry's "embedded:" prefix and runs QAOA on the minor-embedded
// physical problem — mind the 26-qubit state-vector cap when picking the
// topology.

#include "qdm/algo/solver_registration.h"

#include <memory>

#include "qdm/algo/grover_min_sampler.h"
#include "qdm/algo/qaoa.h"
#include "qdm/algo/vqe.h"
#include "qdm/anneal/solver.h"

namespace qdm {
namespace algo {

bool RegisterGateBasedSolvers() {
  auto& registry = anneal::SolverRegistry::Global();
  // AlreadyExists on re-entry is expected and harmless.
  (void)registry.Register("qaoa",
                          [] { return std::make_unique<QaoaSampler>(); });
  (void)registry.Register("vqe", [] { return std::make_unique<VqeSampler>(); });
  (void)registry.Register("grover_min",
                          [] { return std::make_unique<GroverMinSampler>(); });
  return true;
}

namespace {
[[maybe_unused]] const bool kGateBasedSolversRegistered =
    RegisterGateBasedSolvers();
}  // namespace

}  // namespace algo
}  // namespace qdm
