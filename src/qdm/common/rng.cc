#include "qdm/common/rng.h"

namespace qdm {

Mt19937_64::Mt19937_64(uint64_t seed) {
  // The standard's seeding recurrence for mersenne_twister_engine
  // (initialization multiplier f = 6364136223846793005).
  state_[0] = seed;
  for (size_t i = 1; i < kStateSize; ++i) {
    const uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ull * (prev ^ (prev >> 62)) + i;
  }
  index_ = kStateSize;
}

void Mt19937_64::Twist() {
  constexpr size_t kShift = 156;  // m
  constexpr uint64_t kUpper = ~uint64_t{0} << 31;
  constexpr uint64_t kLower = ~kUpper;
  constexpr uint64_t kMatrix = 0xB5026F5AA96619E9ull;  // a
  const auto twisted = [](uint64_t word, uint64_t next, uint64_t far) {
    const uint64_t y = (word & kUpper) | (next & kLower);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrix);
  };
  uint64_t* const x = state_;
  size_t k = 0;
  for (; k < kStateSize - kShift; ++k) {
    x[k] = twisted(x[k], x[k + 1], x[k + kShift]);
  }
  for (; k < kStateSize - 1; ++k) {
    x[k] = twisted(x[k], x[k + 1], x[k + kShift - kStateSize]);
  }
  x[kStateSize - 1] = twisted(x[kStateSize - 1], x[0], x[kShift - 1]);
  index_ = 0;
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  QDM_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    QDM_CHECK_GE(w, 0.0);
    total += w;
  }
  QDM_CHECK_GT(total, 0.0)
      << "Categorical() needs at least one positive weight";
  double r = Uniform() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (r < acc) return i;
  }
  return weights.size() - 1;  // Guard against floating-point round-off.
}

}  // namespace qdm
