#include "qdm/anneal/parallel_tempering.h"

#include <cmath>
#include <optional>

#include "qdm/anneal/simulated_annealing.h"
#include "qdm/common/strings.h"

namespace qdm {
namespace anneal {

Result<SampleSet> ParallelTempering::Solve(const Qubo& qubo,
                                           const SolverOptions& options) {
  QDM_RETURN_IF_ERROR(ValidateSolverOptions(options));
  if (options.num_replicas == 1) {
    return Status::InvalidArgument(StrFormat(
        "parallel_tempering needs num_replicas >= 2 to exchange replicas "
        "(0 = the default %d), got 1",
        kDefaultReplicas));
  }
  std::optional<Rng> local;
  Rng* rng = ResolveSolverRng(options, &local);
  const QuboAdjacency adj(qubo);
  const int n = adj.num_variables();

  const auto [beta_min, beta_max] = BetaRange(adj, options);
  const int r =
      options.num_replicas > 0 ? options.num_replicas : kDefaultReplicas;
  const int sweeps =
      options.num_sweeps > 0 ? options.num_sweeps : kDefaultSweeps;
  const int swap_interval =
      options.swap_interval > 0 ? options.swap_interval : kDefaultSwapInterval;
  std::vector<double> betas(r);
  for (int k = 0; k < r; ++k) {
    betas[k] = beta_min * std::pow(beta_max / beta_min,
                                   static_cast<double>(k) / (r - 1));
  }

  SampleSet result;
  for (int read = 0; read < options.num_reads; ++read) {
    std::vector<SpinMasks> replicas(r);
    std::vector<double> energies(r);
    for (int k = 0; k < r; ++k) {
      energies[k] = adj.RandomSpins(rng, &replicas[k]);
    }

    SpinMasks best = replicas[0];
    double best_energy = energies[0];

    for (int sweep = 0; sweep < sweeps; ++sweep) {
      for (int k = 0; k < r; ++k) {
        uint64_t* spins = replicas[k].data();
        for (int i = 0; i < n; ++i) {
          const double delta = adj.FlipDelta(spins, i);
          if (delta <= 0.0 || rng->Uniform() < std::exp(-betas[k] * delta)) {
            spins[i] = ~spins[i];
            energies[k] += delta;
          }
        }
        if (energies[k] < best_energy) {
          best_energy = energies[k];
          best = replicas[k];
        }
      }
      if (sweep % swap_interval == 0) {
        for (int k = 0; k + 1 < r; ++k) {
          const double arg = (betas[k + 1] - betas[k]) *
                             (energies[k + 1] - energies[k]);
          if (arg >= 0.0 || rng->Uniform() < std::exp(arg)) {
            std::swap(replicas[k], replicas[k + 1]);
            std::swap(energies[k], energies[k + 1]);
          }
        }
      }
    }
    result.Add(Sample{ToAssignment(best), best_energy, 0.0});
  }
  return result;
}

}  // namespace anneal
}  // namespace qdm
