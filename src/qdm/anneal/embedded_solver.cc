#include "qdm/anneal/embedded_solver.h"

#include <utility>

#include "qdm/anneal/backend_cache.h"
#include "qdm/common/strings.h"

namespace qdm {
namespace anneal {

EmbeddedSolver::EmbeddedSolver(std::string registry_name, std::string base_name,
                               std::unique_ptr<QuboSolver> base,
                               std::shared_ptr<const HardwareTopology> topology)
    : registry_name_(std::move(registry_name)),
      base_name_(std::move(base_name)),
      base_(std::move(base)),
      topology_(std::move(topology)) {
  QDM_CHECK(base_ != nullptr);
  QDM_CHECK(topology_ != nullptr);
}

Result<SampleSet> EmbeddedSolver::Solve(const Qubo& qubo,
                                        const SolverOptions& options) {
  QDM_RETURN_IF_ERROR(ValidateSolverOptions(options));
  // The clique plan depends only on (topology, problem size) — served by
  // the process-wide cache, so repeated solves of same-sized problems skip
  // the TRIAD construction entirely.
  QDM_ASSIGN_OR_RETURN(
      std::shared_ptr<const Embedding> embedding,
      GetCachedCliqueEmbedding(qubo.num_variables(), *topology_));
  QDM_ASSIGN_OR_RETURN(
      EmbeddedQubo embedded,
      EmbedQubo(qubo, *embedding, *topology_, options.chain_strength));

  // EmbedQubo's physical model spans every hardware qubit, but only chain
  // qubits carry terms; dispatching it whole would make the base backend
  // sweep hundreds of free spins on production-sized topologies. Compact to
  // the chain qubits (dense re-map), solve, and expand samples back to
  // hardware ids for unembedding.
  std::vector<int> hw_of_dense;
  std::vector<int> dense_of_hw(topology_->num_qubits(), -1);
  for (const auto& chain : embedded.embedding.chains) {
    for (int q : chain) {
      if (dense_of_hw[q] < 0) {
        dense_of_hw[q] = static_cast<int>(hw_of_dense.size());
        hw_of_dense.push_back(q);
      }
    }
  }
  Qubo compact(static_cast<int>(hw_of_dense.size()));
  compact.AddOffset(embedded.physical.offset());
  for (size_t d = 0; d < hw_of_dense.size(); ++d) {
    const double h = embedded.physical.linear(hw_of_dense[d]);
    if (h != 0.0) compact.AddLinear(static_cast<int>(d), h);
  }
  for (const auto& [key, w] : embedded.physical.quadratic_terms()) {
    if (w == 0.0) continue;
    // Every quadratic term lies on a coupler between chain qubits.
    QDM_CHECK(dense_of_hw[key.first] >= 0 && dense_of_hw[key.second] >= 0);
    compact.AddQuadratic(dense_of_hw[key.first], dense_of_hw[key.second], w);
  }

  // The base backend is owned and reused across Solve calls (an
  // EmbeddedSolver instance is never shared across threads). It reads its
  // own knobs from the same options struct; the embedding knobs it does not
  // understand are ignored per the solver.h convention.
  Result<SampleSet> compact_samples = base_->Solve(compact, options);
  if (!compact_samples.ok()) {
    return Status(compact_samples.status().code(),
                  StrFormat("base '%s' on %s: %s", base_name_.c_str(),
                            topology_->name().c_str(),
                            compact_samples.status().message().c_str()));
  }
  SampleSet physical;
  for (const Sample& s : compact_samples->samples()) {
    Sample expanded;
    expanded.assignment.assign(topology_->num_qubits(), 0);
    for (size_t d = 0; d < hw_of_dense.size(); ++d) {
      expanded.assignment[hw_of_dense[d]] = s.assignment[d];
    }
    expanded.energy = s.energy;
    physical.Add(std::move(expanded));
  }
  return UnembedAll(qubo, embedded, physical, options.chain_break_policy);
}

Result<std::unique_ptr<QuboSolver>> MakeEmbeddedSolver(
    const std::string& name) {
  const std::string kPrefix = "embedded:";
  if (!StartsWith(name, kPrefix)) {
    return Status::InvalidArgument(
        StrFormat("embedded solver name '%s' must start with '%s'",
                  name.c_str(), kPrefix.c_str()));
  }
  const std::string rest = name.substr(kPrefix.size());
  const size_t colon = rest.find(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= rest.size()) {
    return Status::InvalidArgument(
        StrFormat("embedded solver name '%s' must have the form "
                  "'embedded:<base>:<topology-spec>'",
                  name.c_str()));
  }
  const std::string base = rest.substr(0, colon);
  const std::string topology_spec = rest.substr(colon + 1);
  if (base == "embedded") {
    return Status::InvalidArgument(StrFormat(
        "nested embedded backends are not supported ('%s')", name.c_str()));
  }
  // Resolve the base here (it is owned and reused by the instance, not
  // re-Created per Solve). The base token is colon-free by construction, so
  // any Create failure means an unknown plain name — reported with the
  // embedded framing rather than the registry's own NotFound.
  Result<std::unique_ptr<QuboSolver>> base_solver =
      SolverRegistry::Global().Create(base);
  if (!base_solver.ok()) {
    return Status::NotFound(StrFormat(
        "embedded solver '%s' wraps unknown base '%s' (registered: %s)",
        name.c_str(), base.c_str(),
        StrJoin(SolverRegistry::Global().RegisteredNames(), ", ").c_str()));
  }
  QDM_ASSIGN_OR_RETURN(std::shared_ptr<const HardwareTopology> topology,
                       GetCachedTopology(topology_spec));
  return std::unique_ptr<QuboSolver>(std::make_unique<EmbeddedSolver>(
      name, base, std::move(base_solver).value(), std::move(topology)));
}

bool RegisterEmbeddedSolvers() {
  auto& registry = SolverRegistry::Global();
  // Any well-formed "embedded:<base>:<topology>" name resolves on demand.
  (void)registry.RegisterPrefix("embedded:", MakeEmbeddedSolver);
  // Eagerly register a default matrix so the common names show up in
  // RegisteredNames() (and are covered by the every-registered-backend
  // tests): production-sized chimera/pegasus/zephyr under the annealing
  // family, plus an exact ground-truth backend on a single Chimera cell.
  // AlreadyExists on re-entry is expected and harmless.
  for (const char* name : {
           "embedded:simulated_annealing:chimera:4x4x4",
           "embedded:simulated_annealing:pegasus:6",
           "embedded:simulated_annealing:zephyr:4",
           "embedded:tabu_search:chimera:4x4x4",
           "embedded:parallel_tempering:chimera:4x4x4",
           "embedded:exact:chimera:1x1x4",
       }) {
    (void)registry.Register(name, [name] {
      Result<std::unique_ptr<QuboSolver>> solver = MakeEmbeddedSolver(name);
      QDM_CHECK(solver.ok()) << "default embedded backend '" << name
                             << "' failed to build: " << solver.status();
      return std::move(solver).value();
    });
  }
  return true;
}

namespace {
[[maybe_unused]] const bool kEmbeddedSolversRegistered =
    RegisterEmbeddedSolvers();
}  // namespace

}  // namespace anneal
}  // namespace qdm
