#include "qdm/anneal/noisy_solver.h"

#include "qdm/common/check.h"
#include "qdm/common/strings.h"

namespace qdm {
namespace anneal {

NoisySolver::NoisySolver(std::string registry_name, NoiseSpec spec,
                         std::unique_ptr<QuboSolver> base)
    : registry_name_(std::move(registry_name)),
      spec_(spec),
      base_(std::move(base)) {
  QDM_CHECK(base_ != nullptr);
}

Result<SolverOptions> NoisySolver::WithNoise(
    const SolverOptions& options) const {
  if (options.noise.channel != NoiseChannel::kNone) {
    return Status::InvalidArgument(
        StrFormat("solver '%s': options.noise is already set ('%s'); a noisy:* "
                  "backend supplies its own model",
                  registry_name_.c_str(), options.noise.ToString().c_str()));
  }
  // A zero-rate model perturbs nothing: delegate with options untouched so
  // the result is bit-identical to the bare base backend.
  if (spec_.IsNoiseless()) return options;
  SolverOptions noisy = options;
  noisy.noise = spec_;
  return noisy;
}

Result<SampleSet> NoisySolver::Solve(const Qubo& qubo,
                                     const SolverOptions& options) {
  QDM_ASSIGN_OR_RETURN(const SolverOptions noisy, WithNoise(options));
  return base_->Solve(qubo, noisy);
}

Result<std::vector<SampleSet>> NoisySolver::SolveBatch(
    const std::vector<Qubo>& qubos, const SolverOptions& options,
    int num_threads) {
  // The noise spec is seed-independent, so injecting it before the base's
  // per-instance seed derivation equals injecting it per instance. A
  // pre-set model fails every instance; the lowest index is reported.
  Result<SolverOptions> noisy = WithNoise(options);
  if (!noisy.ok()) {
    return AnnotateBatchInstanceError(noisy.status(), 0, qubos.size());
  }
  return base_->SolveBatch(qubos, *noisy, num_threads);
}

Result<std::unique_ptr<QuboSolver>> MakeNoisySolver(const std::string& name) {
  const std::string kPrefix = "noisy:";
  if (!StartsWith(name, kPrefix)) {
    return Status::InvalidArgument(
        StrFormat("noisy solver name '%s' must start with '%s'", name.c_str(),
                  kPrefix.c_str()));
  }
  const std::string rest = name.substr(kPrefix.size());
  if (StartsWith(rest, kPrefix)) {
    return Status::InvalidArgument(StrFormat(
        "nested noisy backends are not supported ('%s' inside '%s'): one "
        "noise model per backend",
        rest.c_str(), name.c_str()));
  }
  const size_t colon = rest.find(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= rest.size()) {
    return Status::InvalidArgument(StrFormat(
        "noisy solver name '%s' must have the form 'noisy:<model>:<base>'",
        name.c_str()));
  }
  const std::string model_token = rest.substr(0, colon);
  const std::string base = rest.substr(colon + 1);
  if (StartsWith(base, kPrefix)) {
    return Status::InvalidArgument(StrFormat(
        "nested noisy backends are not supported ('%s' inside '%s'): one "
        "noise model per backend",
        base.c_str(), name.c_str()));
  }
  Result<NoiseSpec> spec = ParseNoiseSpec(model_token);
  if (!spec.ok()) {
    return Status(spec.status().code(),
                  StrFormat("noisy solver '%s': %s", name.c_str(),
                            spec.status().message().c_str()));
  }
  // Resolve (not just Contains) so the base's real diagnosis survives — e.g.
  // a malformed embedded topology spec stays InvalidArgument with the spec
  // error; an unknown name stays the registry's NotFound — annotated with
  // the full noisy spec either way.
  Result<std::unique_ptr<QuboSolver>> base_solver =
      SolverRegistry::Global().Create(base);
  if (!base_solver.ok()) {
    return Status(
        base_solver.status().code(),
        StrFormat("noisy solver '%s' wraps base '%s': %s", name.c_str(),
                  base.c_str(), base_solver.status().message().c_str()));
  }
  return std::unique_ptr<QuboSolver>(std::make_unique<NoisySolver>(
      name, std::move(spec).value(), std::move(base_solver).value()));
}

bool RegisterNoisySolvers() {
  auto& registry = SolverRegistry::Global();
  // Any well-formed "noisy:<model>:<base>" name resolves on demand.
  (void)registry.RegisterPrefix("noisy:", MakeNoisySolver);
  // Eagerly register the canonical NISQ scenario so it shows up in
  // RegisteredNames() (and is covered by the every-registered-backend
  // tests). AlreadyExists on re-entry is expected and harmless.
  const char* kDefault = "noisy:depol@0.01:qaoa";
  (void)registry.Register(kDefault, [kDefault] {
    Result<std::unique_ptr<QuboSolver>> solver = MakeNoisySolver(kDefault);
    QDM_CHECK(solver.ok()) << "default noisy backend '" << kDefault
                           << "' failed to build: " << solver.status();
    return std::move(solver).value();
  });
  return true;
}

namespace {
[[maybe_unused]] const bool kNoisySolversRegistered = RegisterNoisySolvers();
}  // namespace

}  // namespace anneal
}  // namespace qdm
