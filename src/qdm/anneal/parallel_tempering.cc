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

  const auto read = [&](Rng* read_rng, int, Sample* sample) {
    std::vector<MetropolisChain> replicas(r);
    for (MetropolisChain& replica : replicas) {
      adj.StartChain(read_rng, &replica);
    }

    SpinMasks best = replicas[0].spins;
    double best_energy = replicas[0].energy;

    for (int sweep = 0; sweep < sweeps; ++sweep) {
      for (int k = 0; k < r; ++k) {
        adj.MetropolisSweep(betas[k], read_rng, &replicas[k]);
        if (replicas[k].energy < best_energy) {
          best_energy = replicas[k].energy;
          best = replicas[k].spins;
        }
      }
      if (sweep % swap_interval == 0) {
        for (int k = 0; k + 1 < r; ++k) {
          const double arg = (betas[k + 1] - betas[k]) *
                             (replicas[k + 1].energy - replicas[k].energy);
          // exp(arg) is exp(-(-arg)) bit for bit: negation is exact.
          if (arg >= 0.0 || MetropolisAccept(read_rng->Uniform(), -arg)) {
            std::swap(replicas[k], replicas[k + 1]);
          }
        }
      }
    }
    *sample = SampleOf(qubo, best);
  };
  return SampleReads(options.num_reads, /*group_size=*/1, rng, read);
}

}  // namespace anneal
}  // namespace qdm
