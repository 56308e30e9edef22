#ifndef QDM_ANNEAL_NOISY_SOLVER_H_
#define QDM_ANNEAL_NOISY_SOLVER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "qdm/anneal/noise_spec.h"
#include "qdm/anneal/solver.h"

namespace qdm {
namespace anneal {

/// Registry backend family `noisy:<model>:<base>`: wraps any registered base
/// backend and solves with SolverOptions.noise set to the parsed model, so
/// the gate-based bridges sample through the sim/ noise machinery
/// (docs/noise.md). A noiseless model (`noisy:depol@0.0:<base>`) delegates
/// with options untouched and is bit-identical to the bare base. Composes
/// with the other prefix families in either direction:
/// `race:noisy:depol@0.01:qaoa+simulated_annealing` races a noisy arm
/// against a classical one, and `noisy:depol@0.01:embedded:qaoa:...` solves
/// the embedded problem noisily.
class NoisySolver : public QuboSolver {
 public:
  NoisySolver(std::string registry_name, NoiseSpec spec,
              std::unique_ptr<QuboSolver> base);

  Result<SampleSet> Solve(const Qubo& qubo,
                          const SolverOptions& options) override;
  /// Injects the model once and hands the whole batch to the base, so a
  /// base with its own batch schedule (an adaptive:* portfolio) keeps it —
  /// and therefore the thread-count bit-identity contract — under the
  /// noise wrapper. Base failures read the same as through Solve.
  Result<std::vector<SampleSet>> SolveBatch(const std::vector<Qubo>& qubos,
                                            const SolverOptions& options,
                                            int num_threads) override;
  std::string name() const override { return registry_name_; }

 private:
  /// `options` with the model injected; a pre-set options.noise is
  /// InvalidArgument, and a noiseless model leaves `options` untouched.
  Result<SolverOptions> WithNoise(const SolverOptions& options) const;

  std::string registry_name_;
  NoiseSpec spec_;
  std::unique_ptr<QuboSolver> base_;
};

/// Parses "noisy:<model>:<base>" and builds the wrapper; the error taxonomy
/// mirrors embedded:*/race:* — malformed model tokens are InvalidArgument
/// naming the token, an unknown base is the registry's NotFound annotated
/// with the full spec, and nested noisy:noisy: is rejected.
Result<std::unique_ptr<QuboSolver>> MakeNoisySolver(const std::string& name);

/// Registers the "noisy:" prefix resolver plus an eagerly-registered default
/// so the family shows up in RegisteredNames(). Invoked by a static
/// registrar; safe to call again.
bool RegisterNoisySolvers();

}  // namespace anneal
}  // namespace qdm

#endif  // QDM_ANNEAL_NOISY_SOLVER_H_
