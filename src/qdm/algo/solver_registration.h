#ifndef QDM_ALGO_SOLVER_REGISTRATION_H_
#define QDM_ALGO_SOLVER_REGISTRATION_H_

namespace qdm {
namespace algo {

/// Registers the gate-based QuboSolver backends (qaoa, vqe, grover_min) with
/// anneal::SolverRegistry::Global(). Idempotent; returns true. A static
/// registrar in solver_registration.cc already invokes this at load time (the
/// build links qdm as an object library so the registrar is never dropped),
/// so calling it manually is only needed in exotic link setups.
bool RegisterGateBasedSolvers();

}  // namespace algo
}  // namespace qdm

#endif  // QDM_ALGO_SOLVER_REGISTRATION_H_
