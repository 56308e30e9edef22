#include "qdm/anneal/simulated_annealing.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "qdm/common/thread_pool.h"

namespace qdm {
namespace anneal {

Assignment ToAssignment(const SpinMasks& spins) {
  Assignment x(spins.size());
  for (size_t i = 0; i < spins.size(); ++i) x[i] = spins[i] & 1;
  return x;
}

Sample SampleOf(const Qubo& qubo, const SpinMasks& spins) {
  Sample sample{ToAssignment(spins), 0.0, 0.0};
  sample.energy = qubo.Energy(sample.assignment);
  return sample;
}

SampleSet SampleReads(int num_reads, Rng* rng,
                      const std::function<Sample(Rng*)>& read) {
  std::vector<uint64_t> seeds(num_reads);
  for (uint64_t& seed : seeds) seed = rng->engine()();
  std::vector<Sample> samples(num_reads);
  ThreadPool::Shared().ForEach(num_reads, /*max_workers=*/0, [&](int, int r) {
    Rng read_rng(seeds[r]);
    samples[r] = read(&read_rng);
  });
  SampleSet result;
  for (Sample& sample : samples) result.Add(std::move(sample));
  return result;
}

namespace {

// Adds |c| to a row's bound, kept in integers so that a total just past
// 2^53 cannot round back down to it. False once c is not a finite integer
// (NaN fails the first test) or the total passes 2^53. Every term is at
// most 2^53, so the total never overflows.
bool AddToExactRow(double c, uint64_t* row) {
  constexpr double kLimit = 0x1p53;
  if (!(std::abs(c) <= kLimit) || std::floor(c) != c) return false;
  *row += static_cast<uint64_t>(std::abs(c));
  return *row <= static_cast<uint64_t>(kLimit);
}

}  // namespace

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

  for (int i = 0; i < num_variables_ && exact_fields_; ++i) {
    uint64_t row = 0;
    exact_fields_ = AddToExactRow(linear_[i], &row);
    for (int k = start_[i]; k < start_[i + 1] && exact_fields_; ++k) {
      exact_fields_ = AddToExactRow(weight_[k], &row);
    }
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

void QuboAdjacency::StartChain(Rng* rng, MetropolisChain* chain) const {
  chain->energy = RandomSpins(rng, &chain->spins);
  chain->fields.clear();
  if (!exact_fields_) return;
  chain->fields.resize(num_variables_);
  for (int i = 0; i < num_variables_; ++i) {
    // FlipDelta's sum, with the sign of x_i taken back off.
    chain->fields[i] =
        Signed(FlipDelta(chain->spins.data(), i), chain->spins[i]);
  }
}

void QuboAdjacency::MetropolisSweep(double beta, Rng* rng,
                                    MetropolisChain* chain) const {
  uint64_t* spins = chain->spins.data();
  double energy = chain->energy;
  if (chain->fields.empty()) {
    for (int i = 0; i < num_variables_; ++i) {
      const double delta = FlipDelta(spins, i);
      if (delta <= 0.0 || MetropolisAccept(rng->Uniform(), beta * delta)) {
        spins[i] = ~spins[i];
        energy += delta;
      }
    }
  } else {
    // Locals, not members: the Rng call cannot make them stale.
    double* fields = chain->fields.data();
    const int* start = start_.data();
    const int* neighbor = neighbor_.data();
    const double* weight = weight_.data();
    for (int i = 0; i < num_variables_; ++i) {
      const uint64_t spin = spins[i];
      const double delta = Signed(fields[i], spin);
      if (delta <= 0.0 || MetropolisAccept(rng->Uniform(), beta * delta)) {
        // x_i goes 0 -> 1 (spin 0) or 1 -> 0 (spin all ones), so each
        // neighbour's field gains or loses the coupling.
        for (int k = start[i]; k < start[i + 1]; ++k) {
          fields[neighbor[k]] += Signed(weight[k], spin);
        }
        spins[i] = ~spin;
        energy += delta;
      }
    }
  }
  chain->energy = energy;
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

  const auto [beta_min, beta_max] = BetaRange(adj, options);
  const int sweeps =
      options.num_sweeps > 0 ? options.num_sweeps : kDefaultSweeps;
  const double ratio =
      sweeps > 1 ? std::pow(beta_max / beta_min, 1.0 / (sweeps - 1)) : 1.0;

  return SampleReads(options.num_reads, rng, [&](Rng* read_rng) {
    MetropolisChain chain;
    adj.StartChain(read_rng, &chain);
    double beta = beta_min;
    for (int sweep = 0; sweep < sweeps; ++sweep, beta *= ratio) {
      adj.MetropolisSweep(beta, read_rng, &chain);
    }
    return SampleOf(qubo, chain.spins);
  });
}

}  // namespace anneal
}  // namespace qdm
