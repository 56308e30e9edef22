#ifndef QDM_COMMON_RNG_H_
#define QDM_COMMON_RNG_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "qdm/common/check.h"

namespace qdm {

/// MT19937-64 (Matsumoto & Nishimura), output-identical to
/// std::mt19937_64: the standard fixes that engine's seeding and output
/// sequence, and tests/common_test.cc compares the two over 10^6 outputs.
/// The in-tree copy differs only in speed: its twist selects the matrix
/// term with a mask, `(0 - (y & 1)) & a`, where libstdc++ branches on the
/// low bit of every state word. Satisfies UniformRandomBitGenerator, so
/// the std distributions accept it.
class Mt19937_64 {
 public:
  using result_type = uint64_t;

  explicit Mt19937_64(uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (index_ >= kStateSize) Twist();
    uint64_t z = state_[index_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71D67FFFEDA60000ull;
    z ^= (z << 37) & 0xFFF7EEE000000000ull;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr size_t kStateSize = 312;

  /// Regenerates all kStateSize words and rewinds index_.
  void Twist();

  uint64_t state_[kStateSize];
  size_t index_;
};

/// Deterministic pseudo-random number generator used throughout the toolkit.
/// All stochastic components (annealers, shot sampling, workload generators,
/// network simulation) take an explicit Rng so that experiments are
/// reproducible from a seed.
class Rng {
 public:
  /// Seed used when none is given (and the zero-means-default mapping of
  /// anneal::SolverOptions.seed / per-shot seed derivation resolve to it).
  static constexpr uint64_t kDefaultSeed = 0x9E3779B97F4A7C15ull;

  explicit Rng(uint64_t seed = kDefaultSeed) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double Uniform() { return UnitFromBits(engine_()); }

  /// The [0, 1) double for one 64-bit engine output: double(bits) * 2^-64,
  /// with double(bits) rounded to nearest-even, and the top 1024 inputs
  /// (which round to 2^64) clamped to nextafter(1.0, 0.0). This is the
  /// value std::generate_canonical<double, 53> yields for one output of a
  /// 64-bit engine. The conversion is done as two exact 32-bit halves and
  /// one correctly rounded add, which equals the direct conversion without
  /// its sign-test branch.
  static double UnitFromBits(uint64_t bits) {
    const double high = static_cast<double>(static_cast<uint32_t>(bits >> 32));
    const double low = static_cast<double>(static_cast<uint32_t>(bits));
    return std::min(high * 0x1p-32 + low * 0x1p-64, 0x1.fffffffffffffp-1);
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  /// Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi) {
    QDM_CHECK_LE(lo, hi);
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Standard normal sample.
  double Gaussian() { return normal_(engine_); }

  /// Gaussian with the given mean and standard deviation.
  double Gaussian(double mean, double stddev) {
    return mean + stddev * Gaussian();
  }

  /// Exponential sample with the given rate (mean 1/rate).
  double Exponential(double rate) {
    QDM_CHECK_GT(rate, 0.0);
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Samples an index in [0, weights.size()) proportionally to weights.
  size_t Categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (size_t i = items->size(); i > 1; --i) {
      size_t j =
          static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap((*items)[i - 1], (*items)[j]);
    }
  }

  /// Underlying engine, for std distributions not wrapped here.
  Mt19937_64& engine() { return engine_; }

 private:
  Mt19937_64 engine_;
  std::normal_distribution<double> normal_{0.0, 1.0};
};

}  // namespace qdm

#endif  // QDM_COMMON_RNG_H_
