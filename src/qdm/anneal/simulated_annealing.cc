#include "qdm/anneal/simulated_annealing.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "qdm/common/check.h"
#include "qdm/common/thread_pool.h"
#include "qdm/sim/statevector.h"

// The read lanes are compiled with per-function target("avx2") attributes,
// as the statevector kernels in sim/simd.cc are, so the library still runs
// on any x86-64 machine; ReadLanes() gates every call at runtime. No fma:
// every multiply and add rounds on its own, as in the one-read loops.
#if defined(QDM_ENABLE_SIMD) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define QDM_ANNEAL_HAVE_AVX2 1
#include <immintrin.h>
#endif

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

SampleSet SampleReads(int num_reads, int group_size, Rng* rng,
                      const std::function<void(Rng*, int, Sample*)>& reads) {
  std::vector<uint64_t> seeds(num_reads);
  for (uint64_t& seed : seeds) seed = rng->engine()();
  std::vector<Sample> samples(num_reads);
  const int groups = (num_reads + group_size - 1) / group_size;
  ThreadPool::Shared().ForEach(groups, /*max_workers=*/0, [&](int, int g) {
    const int first = g * group_size;
    const int count = std::min(group_size, num_reads - first);
    std::vector<Rng> read_rngs;
    read_rngs.reserve(count);
    for (int j = 0; j < count; ++j) read_rngs.emplace_back(seeds[first + j]);
    reads(read_rngs.data(), count, samples.data() + first);
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

bool QuboAdjacency::ReadLanes() {
#if QDM_ANNEAL_HAVE_AVX2
  return sim::Statevector::ResolvedSimdTier() == sim::simd::Tier::kAvx2;
#else
  return false;
#endif
}

int QuboAdjacency::ReadGroupSize(int num_reads) {
  return ReadLanes() && num_reads >= 2 ? kLanes : 1;
}

#if QDM_ANNEAL_HAVE_AVX2

namespace {

constexpr int kLanes = QuboAdjacency::kLanes;

// One variable's values in every lane, aligned for one 256-bit load.
template <typename T>
struct alignas(32) LaneQuad {
  T lane[kLanes];
};

__attribute__((target("avx2"))) inline __m256d Load(
    const LaneQuad<double>& quad) {
  return _mm256_load_pd(quad.lane);
}
__attribute__((target("avx2"))) inline __m256d Load(
    const LaneQuad<uint64_t>& quad) {
  return _mm256_castsi256_pd(
      _mm256_load_si256(reinterpret_cast<const __m256i*>(quad.lane)));
}
__attribute__((target("avx2"))) inline void Store(__m256d value,
                                                  LaneQuad<double>* quad) {
  _mm256_store_pd(quad->lane, value);
}
__attribute__((target("avx2"))) inline void Store(__m256d value,
                                                  LaneQuad<uint64_t>* quad) {
  _mm256_store_si256(reinterpret_cast<__m256i*>(quad->lane),
                     _mm256_castpd_si256(value));
}

// All ones in lanes [0, count), zero in the others.
__attribute__((target("avx2"))) inline __m256d FirstLanes(int count) {
  return _mm256_castsi256_pd(_mm256_cmpgt_epi64(
      _mm256_set1_epi64x(count), _mm256_setr_epi64x(0, 1, 2, 3)));
}

// FlipDelta's field of one variable in every lane: `linear`, then for each
// neighbour k in CSR order the weight's bits masked by that lane's spin.
// Each lane adds the same doubles in the same order as the one-read sum.
__attribute__((target("avx2"))) inline __m256d LaneField(
    double linear, int begin, int end, const int* neighbor,
    const double* weight, const LaneQuad<uint64_t>* spins) {
  __m256d field = _mm256_set1_pd(linear);
  for (int k = begin; k < end; ++k) {
    field = _mm256_add_pd(field, _mm256_and_pd(_mm256_set1_pd(weight[k]),
                                               Load(spins[neighbor[k]])));
  }
  return field;
}

// MetropolisAccept(u, y) in each lane set in `draw`, false in the others:
// the same Horner sum, the same bracket, and std::exp for a lane the bracket
// leaves open, each operation rounded as the scalar one is.
__attribute__((target("avx2"))) inline __m256d MetropolisAcceptLanes(
    __m256d u, __m256d y, __m256d draw) {
  const __m256d one = _mm256_set1_pd(1.0);
  __m256d t5 = _mm256_mul_pd(y, _mm256_set1_pd(1.0 / 120));
  t5 = _mm256_mul_pd(y, _mm256_add_pd(_mm256_set1_pd(1.0 / 24), t5));
  t5 = _mm256_mul_pd(y, _mm256_add_pd(_mm256_set1_pd(1.0 / 6), t5));
  t5 = _mm256_mul_pd(y, _mm256_add_pd(_mm256_set1_pd(0.5), t5));
  t5 = _mm256_mul_pd(y, _mm256_add_pd(one, t5));
  t5 = _mm256_add_pd(one, t5);
  const __m256d reject =
      _mm256_cmp_pd(_mm256_mul_pd(u, t5),
                    _mm256_set1_pd(1.0 + kMetropolisMargin), _CMP_GE_OQ);
  const __m256d sure = _mm256_cmp_pd(
      u,
      _mm256_sub_pd(_mm256_sub_pd(one, y), _mm256_set1_pd(kMetropolisMargin)),
      _CMP_LT_OQ);
  __m256d accept = _mm256_and_pd(_mm256_andnot_pd(reject, sure), draw);
  const int open =
      _mm256_movemask_pd(_mm256_andnot_pd(_mm256_or_pd(reject, sure), draw));
  if (open != 0) {
    LaneQuad<double> us, ys;
    LaneQuad<uint64_t> exact = {};
    Store(u, &us);
    Store(y, &ys);
    for (int l = 0; l < kLanes; ++l) {
      if ((open >> l) & 1) {
        exact.lane[l] = SpinMask(us.lane[l] < std::exp(-ys.lane[l]));
      }
    }
    accept = _mm256_or_pd(accept, Load(exact));
  }
  return accept;
}

}  // namespace

__attribute__((target("avx2"))) void QuboAdjacency::AnnealLanes(
    int count, Rng* rngs, double beta_min, double ratio, int sweeps,
    SpinMasks* spins) const {
  QDM_CHECK(count >= 1 && count <= kLanes) << count << " read lanes";
  // Locals, not members: the 256-bit stores below may alias anything.
  const int n = num_variables_;
  const bool exact = exact_fields_;
  const double* linear = linear_.data();
  const int* start = start_.data();
  const int* neighbor = neighbor_.data();
  const double* weight = weight_.data();
  const __m256d lanes = FirstLanes(count);
  const __m256d sign_bit =
      _mm256_castsi256_pd(_mm256_set1_epi64x(static_cast<long long>(kSignBit)));

  // Lane l's uniforms, drawn ahead of use: its next one is
  // uniforms[next.lane[l]], inside its block [l * capacity, (l + 1) *
  // capacity). A lane past `count` never draws; its index stays in range.
  const int64_t capacity = 2 * int64_t{n} + 16;
  std::vector<double> uniforms(kLanes * capacity);
  LaneQuad<uint64_t> next;
  for (int l = 0; l < kLanes; ++l) {
    next.lane[l] = l * capacity + (l < count ? capacity : 0);
  }
  // Tops each read's block up to at least n unread uniforms: enough for the
  // start state or for one sweep. One block draw per lane, the same values
  // its Uniform() calls would give.
  const auto refill = [&] {
    for (int l = 0; l < count; ++l) {
      double* block = uniforms.data() + l * capacity;
      const int64_t used = static_cast<int64_t>(next.lane[l]) - l * capacity;
      if (capacity - used >= n) continue;
      std::copy(block + used, block + capacity, block);
      rngs[l].FillUniformAvx2(block + capacity - used,
                              static_cast<size_t>(used));
      next.lane[l] = l * capacity;
    }
  };

  // StartChain per lane: one Bernoulli(0.5) per variable, then the fields.
  refill();
  std::vector<LaneQuad<uint64_t>> lane_spins(n);
  for (int l = 0; l < count; ++l) {
    const double* u = uniforms.data() + next.lane[l];
    for (int i = 0; i < n; ++i) lane_spins[i].lane[l] = SpinMask(u[i] < 0.5);
    next.lane[l] += n;
  }
  std::vector<LaneQuad<double>> fields(exact ? n : 0);
  for (int i = 0; i < static_cast<int>(fields.size()); ++i) {
    Store(LaneField(linear[i], start[i], start[i + 1], neighbor, weight,
                    lane_spins.data()),
          &fields[i]);
  }

  double beta = beta_min;
  for (int sweep = 0; sweep < sweeps; ++sweep, beta *= ratio) {
    refill();
    __m256i cursor = _mm256_castpd_si256(Load(next));
    const __m256d beta_lanes = _mm256_set1_pd(beta);
    for (int i = 0; i < n; ++i) {
      const __m256d spin = Load(lane_spins[i]);
      const __m256d spin_sign = _mm256_and_pd(spin, sign_bit);
      const __m256d field =
          exact ? Load(fields[i])
                : LaneField(linear[i], start[i], start[i + 1], neighbor, weight,
                            lane_spins.data());
      const __m256d delta = _mm256_xor_pd(field, spin_sign);
      // Only an uphill or NaN delta draws, as `delta <= 0.0 ||` decides.
      const __m256d draw = _mm256_and_pd(
          _mm256_cmp_pd(delta, _mm256_setzero_pd(), _CMP_NLE_UQ), lanes);
      const __m256d u = _mm256_i64gather_pd(uniforms.data(), cursor, 8);
      cursor = _mm256_sub_epi64(cursor, _mm256_castpd_si256(draw));
      const __m256d accept = _mm256_or_pd(
          _mm256_andnot_pd(draw, lanes),
          MetropolisAcceptLanes(u, _mm256_mul_pd(beta_lanes, delta), draw));
      if (_mm256_movemask_pd(accept) == 0) continue;
      if (exact) {
        // An accepting lane's neighbours gain or lose the coupling; the
        // others keep their fields bit for bit.
        for (int k = start[i]; k < start[i + 1]; ++k) {
          LaneQuad<double>& target = fields[neighbor[k]];
          const __m256d old_field = Load(target);
          const __m256d moved = _mm256_add_pd(
              old_field, _mm256_xor_pd(_mm256_set1_pd(weight[k]), spin_sign));
          Store(_mm256_blendv_pd(old_field, moved, accept), &target);
        }
      }
      Store(_mm256_xor_pd(spin, accept), &lane_spins[i]);
    }
    Store(_mm256_castsi256_pd(cursor), &next);
  }

  for (int l = 0; l < count; ++l) {
    spins[l].resize(n);
    for (int i = 0; i < n; ++i) spins[l][i] = lane_spins[i].lane[l];
  }
}

__attribute__((target("avx2"))) void QuboAdjacency::TabuLanes(
    int count, int max_iterations, int tenure, const double* energies,
    SpinMasks* spins) const {
  QDM_CHECK(count >= 1 && count <= kLanes) << count << " read lanes";
  const int n = num_variables_;
  const double* linear = linear_.data();
  const int* start = start_.data();
  const int* neighbor = neighbor_.data();
  const double* weight = weight_.data();
  const __m256d sign_bit =
      _mm256_castsi256_pd(_mm256_set1_epi64x(static_cast<long long>(kSignBit)));
  const __m256i none = _mm256_set1_epi64x(-1);

  std::vector<LaneQuad<uint64_t>> current(n);
  for (int l = 0; l < count; ++l) {
    for (int i = 0; i < n; ++i) current[i].lane[l] = spins[l][i];
  }
  // tabu_until as int64 lanes, so one signed compare tests all four.
  LaneQuad<uint64_t> never;
  for (uint64_t& lane : never.lane) lane = static_cast<uint64_t>(-1);
  std::vector<LaneQuad<uint64_t>> tabu_until(n, never);
  LaneQuad<double> energy = {}, best_energy = {};
  for (int l = 0; l < count; ++l) {
    energy.lane[l] = energies[l];
    best_energy.lane[l] = energies[l];
  }

  int searching = (1 << count) - 1;  // Lanes still moving, one bit each.
  for (int iter = 0; iter < max_iterations && searching != 0; ++iter) {
    // The one-read scan's selects, lane by lane: the first strictly
    // smallest delta among the allowed flips.
    const __m256d energy_lanes = Load(energy);
    const __m256d best_lanes = Load(best_energy);
    const __m256i iter_lanes = _mm256_set1_epi64x(iter);
    __m256i chosen = none;
    __m256d chosen_delta = _mm256_setzero_pd();
    for (int i = 0; i < n; ++i) {
      const __m256d delta =
          _mm256_xor_pd(LaneField(linear[i], start[i], start[i + 1], neighbor,
                                  weight, current.data()),
                        _mm256_and_pd(Load(current[i]), sign_bit));
      const __m256i tabu = _mm256_cmpgt_epi64(
          _mm256_castpd_si256(Load(tabu_until[i])), iter_lanes);
      const __m256d allowed =
          _mm256_or_pd(_mm256_castsi256_pd(_mm256_xor_si256(tabu, none)),
                       _mm256_cmp_pd(_mm256_add_pd(energy_lanes, delta),
                                     best_lanes, _CMP_LT_OQ));
      const __m256d take = _mm256_and_pd(
          allowed,
          _mm256_or_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(chosen, none)),
                       _mm256_cmp_pd(delta, chosen_delta, _CMP_LT_OQ)));
      chosen = _mm256_castpd_si256(
          _mm256_blendv_pd(_mm256_castsi256_pd(chosen),
                           _mm256_castsi256_pd(_mm256_set1_epi64x(i)), take));
      chosen_delta = _mm256_blendv_pd(chosen_delta, delta, take);
    }
    LaneQuad<uint64_t> chosen_lanes;
    LaneQuad<double> delta_lanes;
    Store(_mm256_castsi256_pd(chosen), &chosen_lanes);
    Store(chosen_delta, &delta_lanes);
    for (int l = 0; l < count; ++l) {
      if (((searching >> l) & 1) == 0) continue;
      const int64_t flip = static_cast<int64_t>(chosen_lanes.lane[l]);
      if (flip == -1) {  // Everything tabu: this read is done.
        searching &= ~(1 << l);
        continue;
      }
      current[flip].lane[l] = ~current[flip].lane[l];
      energy.lane[l] += delta_lanes.lane[l];
      tabu_until[flip].lane[l] =
          static_cast<uint64_t>(iter + std::min(tenure, max_iterations - iter));
      if (energy.lane[l] < best_energy.lane[l]) {
        best_energy.lane[l] = energy.lane[l];
        for (int i = 0; i < n; ++i) spins[l][i] = current[i].lane[l];
      }
    }
  }
}

#else  // !QDM_ANNEAL_HAVE_AVX2

void QuboAdjacency::AnnealLanes(int, Rng*, double, double, int,
                                SpinMasks*) const {
  QDM_CHECK(false) << "read lanes need the avx2 tier (ReadLanes())";
}

void QuboAdjacency::TabuLanes(int, int, int, const double*, SpinMasks*) const {
  QDM_CHECK(false) << "read lanes need the avx2 tier (ReadLanes())";
}

#endif  // QDM_ANNEAL_HAVE_AVX2

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

  return SampleReads(
      options.num_reads, QuboAdjacency::ReadGroupSize(options.num_reads), rng,
      [&](Rng* read_rngs, int count, Sample* samples) {
        SpinMasks spins[QuboAdjacency::kLanes];
        if (count == 1) {
          MetropolisChain chain;
          adj.StartChain(read_rngs, &chain);
          double beta = beta_min;
          for (int sweep = 0; sweep < sweeps; ++sweep, beta *= ratio) {
            adj.MetropolisSweep(beta, read_rngs, &chain);
          }
          spins[0] = std::move(chain.spins);
        } else {
          adj.AnnealLanes(count, read_rngs, beta_min, ratio, sweeps, spins);
        }
        for (int j = 0; j < count; ++j) samples[j] = SampleOf(qubo, spins[j]);
      });
}

}  // namespace anneal
}  // namespace qdm
