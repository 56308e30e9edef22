#include "qdm/anneal/simulated_annealing.h"

#include <algorithm>
#include <cmath>
#include <optional>

namespace qdm {
namespace anneal {

Assignment ToAssignment(const SpinMasks& spins) {
  Assignment x(spins.size());
  for (size_t i = 0; i < spins.size(); ++i) x[i] = spins[i] & 1;
  return x;
}

QuboAdjacency::QuboAdjacency(const Qubo& qubo)
    : num_variables_(qubo.num_variables()),
      offset_(qubo.offset()),
      linear_(qubo.num_variables()),
      start_(qubo.num_variables() + 1, 0) {
  double min_nonzero = 0.0;
  for (int i = 0; i < num_variables_; ++i) {
    linear_[i] = qubo.linear(i);
    if (linear_[i] != 0.0) {
      max_abs_coefficient_ =
          std::max(max_abs_coefficient_, std::abs(linear_[i]));
      min_nonzero = min_nonzero == 0.0 ? std::abs(linear_[i])
                                       : std::min(min_nonzero,
                                                  std::abs(linear_[i]));
    }
  }
  for (const auto& [key, w] : qubo.quadratic_terms()) {
    if (w == 0.0) continue;
    ++start_[key.first + 1];
    ++start_[key.second + 1];
    max_abs_coefficient_ = std::max(max_abs_coefficient_, std::abs(w));
    min_nonzero = min_nonzero == 0.0 ? std::abs(w)
                                     : std::min(min_nonzero, std::abs(w));
  }
  min_abs_coefficient_ = min_nonzero;
  for (int i = 0; i < num_variables_; ++i) start_[i + 1] += start_[i];

  // The terms come in (first, second) order, so every variable sees its
  // lower neighbours (as `second`) before its higher ones (as `first`),
  // each group ascending: the lists fill in ascending neighbour order.
  neighbor_.resize(start_[num_variables_]);
  weight_.resize(start_[num_variables_]);
  std::vector<int> fill(start_.begin(), start_.end() - 1);
  for (const auto& [key, w] : qubo.quadratic_terms()) {
    if (w == 0.0) continue;
    neighbor_[fill[key.first]] = key.second;
    weight_[fill[key.first]++] = w;
    neighbor_[fill[key.second]] = key.first;
    weight_[fill[key.second]++] = w;
  }
}

double QuboAdjacency::Energy(const Assignment& x) const {
  double e = offset_;
  for (int i = 0; i < num_variables_; ++i) {
    if (!x[i]) continue;
    e += linear_[i];
    for (int k = start_[i]; k < start_[i + 1]; ++k) {
      if (neighbor_[k] > i && x[neighbor_[k]]) e += weight_[k];
    }
  }
  return e;
}

double QuboAdjacency::RandomSpins(Rng* rng, SpinMasks* spins) const {
  Assignment x(num_variables_);
  for (int i = 0; i < num_variables_; ++i) x[i] = rng->Bernoulli(0.5) ? 1 : 0;
  spins->resize(num_variables_);
  for (int i = 0; i < num_variables_; ++i) (*spins)[i] = SpinMask(x[i]);
  return Energy(x);
}

double QuboAdjacency::FlipDelta(const Assignment& x, int i) const {
  double field = linear_[i];
  for (int k = start_[i]; k < start_[i + 1]; ++k) {
    if (x[neighbor_[k]]) field += weight_[k];
  }
  return x[i] ? -field : field;
}

std::pair<double, double> BetaRange(const QuboAdjacency& adj,
                                    const SolverOptions& options) {
  if (options.beta_max <= 0.0) {
    const double hottest = std::max(adj.max_abs_coefficient(), 1e-9);
    const double coldest = std::max(adj.min_abs_coefficient(), 1e-9);
    return {0.1 / hottest, 10.0 / coldest};
  }
  return {options.beta_min, options.beta_max};
}

Result<SampleSet> SimulatedAnnealer::Solve(const Qubo& qubo,
                                           const SolverOptions& options) {
  QDM_RETURN_IF_ERROR(ValidateSolverOptions(options));
  std::optional<Rng> local;
  Rng* rng = ResolveSolverRng(options, &local);
  const QuboAdjacency adj(qubo);
  const int n = adj.num_variables();

  const auto [beta_min, beta_max] = BetaRange(adj, options);
  const int sweeps =
      options.num_sweeps > 0 ? options.num_sweeps : kDefaultSweeps;
  const double ratio =
      sweeps > 1 ? std::pow(beta_max / beta_min, 1.0 / (sweeps - 1)) : 1.0;

  SampleSet result;
  for (int read = 0; read < options.num_reads; ++read) {
    SpinMasks spins;
    double energy = adj.RandomSpins(rng, &spins);

    double beta = beta_min;
    for (int sweep = 0; sweep < sweeps; ++sweep, beta *= ratio) {
      for (int i = 0; i < n; ++i) {
        const double delta = adj.FlipDelta(spins.data(), i);
        if (delta <= 0.0 || rng->Uniform() < std::exp(-beta * delta)) {
          spins[i] = ~spins[i];
          energy += delta;
        }
      }
    }
    result.Add(Sample{ToAssignment(spins), energy, 0.0});
  }
  return result;
}

}  // namespace anneal
}  // namespace qdm
