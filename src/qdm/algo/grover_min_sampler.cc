#include "qdm/algo/grover_min_sampler.h"

#include <optional>
#include <vector>

#include "qdm/algo/grover.h"
#include "qdm/algo/noisy_sampling.h"
#include "qdm/algo/qaoa.h"

namespace qdm {
namespace algo {

Result<anneal::SampleSet> GroverMinSampler::Solve(
    const anneal::Qubo& qubo, const anneal::SolverOptions& options) {
  QDM_RETURN_IF_ERROR(anneal::ValidateSolverOptions(options));
  QDM_RETURN_IF_ERROR(CheckFitsStateVector(qubo, options, kDefaultMaxQubits,
                                           "Grover minimum finding"));
  std::optional<Rng> local;
  Rng* rng = anneal::ResolveSolverRng(options, &local);
  const std::vector<double> diag = BuildDiagonal(qubo);
  const int n = qubo.num_variables();
  const bool noisy = !options.noise.IsNoiseless();
  const sim::NoiseModel model = ToNoiseModel(options.noise);

  anneal::SampleSet set;
  last_oracle_queries_ = 0;
  double survival_total = 0.0;
  for (int read = 0; read < options.num_reads; ++read) {
    const MinimumResult min = DurrHoyerMinimum(
        n, [&](uint64_t z) { return diag[z]; }, rng);
    last_oracle_queries_ += min.oracle_queries;
    uint64_t z = min.argmin;
    if (noisy) {
      double survival = 1.0;
      z = CorruptBasisState(z, n, model, rng, &survival);
      survival_total += survival;
    }
    AddBasisSample(&set, diag, n, z);
  }
  if (noisy) set.set_noise_fidelity(survival_total / options.num_reads);
  return set;
}

}  // namespace algo
}  // namespace qdm
