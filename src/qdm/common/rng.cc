#include "qdm/common/rng.h"

// The block draws are compiled with per-function target("avx2") attributes,
// as the statevector kernels in sim/simd.cc are, so the library still runs
// on any x86-64 machine; their callers gate every call. No fma: the
// conversion's multiplies and add round on their own, as UnitFromBits's do.
#if defined(QDM_ENABLE_SIMD) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define QDM_RNG_HAVE_AVX2 1
#include <immintrin.h>
#endif

namespace qdm {

namespace {

constexpr size_t kStateSize = Mt19937_64::kStateSize;  // n
constexpr size_t kShift = 156;                         // m
constexpr uint64_t kUpper = ~uint64_t{0} << 31;
constexpr uint64_t kLower = ~kUpper;
constexpr uint64_t kMatrix = 0xB5026F5AA96619E9ull;  // a

// One word of the twist: `word`'s upper bits and `next`'s lower ones,
// shifted and masked into `far`.
inline uint64_t Twisted(uint64_t word, uint64_t next, uint64_t far) {
  const uint64_t y = (word & kUpper) | (next & kLower);
  return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrix);
}

}  // namespace

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
  uint64_t* const x = state_;
  size_t k = 0;
  for (; k < kStateSize - kShift; ++k) {
    x[k] = Twisted(x[k], x[k + 1], x[k + kShift]);
  }
  for (; k < kStateSize - 1; ++k) {
    x[k] = Twisted(x[k], x[k + 1], x[k + kShift - kStateSize]);
  }
  x[kStateSize - 1] = Twisted(x[kStateSize - 1], x[0], x[kShift - 1]);
  index_ = 0;
}

#if QDM_RNG_HAVE_AVX2

namespace {

__attribute__((target("avx2"))) inline __m256i Load(const uint64_t* words) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words));
}

__attribute__((target("avx2"))) inline __m256i Set1(uint64_t word) {
  return _mm256_set1_epi64x(static_cast<long long>(word));
}

// Twisted on four consecutive words.
__attribute__((target("avx2"))) inline __m256i TwistedAvx2(__m256i word,
                                                           __m256i next,
                                                           __m256i far) {
  const __m256i y = _mm256_or_si256(_mm256_and_si256(word, Set1(kUpper)),
                                    _mm256_and_si256(next, Set1(kLower)));
  const __m256i odd =
      _mm256_sub_epi64(_mm256_setzero_si256(), _mm256_and_si256(y, Set1(1)));
  return _mm256_xor_si256(_mm256_xor_si256(far, _mm256_srli_epi64(y, 1)),
                          _mm256_and_si256(odd, Set1(kMatrix)));
}

// Mt19937_64::Twist four words at a time. Each block of four reads only
// words the scalar loop would read at that point: in the first half every
// word it reads is still old (the next block's are untouched), in the
// second its `far` words were all rewritten by the first half. The last
// four words, whose `next` wraps to the rewritten x[0], take the scalar
// form.
__attribute__((target("avx2"))) void TwistAvx2(uint64_t* x) {
  size_t k = 0;
  for (; k < kStateSize - kShift; k += 4) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(x + k),
        TwistedAvx2(Load(x + k), Load(x + k + 1), Load(x + k + kShift)));
  }
  for (; k + 4 < kStateSize; k += 4) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(x + k),
                        TwistedAvx2(Load(x + k), Load(x + k + 1),
                                    Load(x + k + kShift - kStateSize)));
  }
  for (; k < kStateSize - 1; ++k) {
    x[k] = Twisted(x[k], x[k + 1], x[k + kShift - kStateSize]);
  }
  x[kStateSize - 1] = Twisted(x[kStateSize - 1], x[0], x[kShift - 1]);
}

// Mt19937_64::operator()'s tempering on four words.
__attribute__((target("avx2"))) inline __m256i TemperAvx2(__m256i z) {
  z = _mm256_xor_si256(
      z, _mm256_and_si256(_mm256_srli_epi64(z, 29), Set1(0x5555555555555555)));
  z = _mm256_xor_si256(
      z, _mm256_and_si256(_mm256_slli_epi64(z, 17), Set1(0x71D67FFFEDA60000)));
  z = _mm256_xor_si256(
      z, _mm256_and_si256(_mm256_slli_epi64(z, 37), Set1(0xFFF7EEE000000000)));
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, 43));
}

// Rng::UnitFromBits on four words. Each 32-bit half is OR-ed into the
// mantissa of 2^52 and 2^52 subtracted, which is exact: the same doubles
// as the scalar casts. Then the same two exact scalings, one rounded add
// and the clamp.
__attribute__((target("avx2"))) inline __m256d UnitFromBitsAvx2(__m256i bits) {
  const __m256i two_52_bits = Set1(0x4330000000000000);
  const __m256d two_52 = _mm256_set1_pd(0x1p52);
  const __m256d high =
      _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(
                        _mm256_srli_epi64(bits, 32), two_52_bits)),
                    two_52);
  const __m256d low = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_blend_epi32(bits, two_52_bits, 0xAA)), two_52);
  const __m256d sum =
      _mm256_add_pd(_mm256_mul_pd(high, _mm256_set1_pd(0x1p-32)),
                    _mm256_mul_pd(low, _mm256_set1_pd(0x1p-64)));
  return _mm256_min_pd(sum, _mm256_set1_pd(0x1.fffffffffffffp-1));
}

}  // namespace

__attribute__((target("avx2"))) void Rng::FillUniformAvx2(double* out,
                                                          size_t n) {
  Mt19937_64& engine = engine_;
  while (n > 0) {
    // Twist lazily, as operator() does, so the engine ends where n
    // single draws leave it.
    if (engine.index_ >= kStateSize) {
      TwistAvx2(engine.state_);
      engine.index_ = 0;
    }
    const size_t take = std::min(n, kStateSize - engine.index_);
    const uint64_t* words = engine.state_ + engine.index_;
    size_t j = 0;
    for (; j + 4 <= take; j += 4) {
      _mm256_storeu_pd(out + j, UnitFromBitsAvx2(TemperAvx2(Load(words + j))));
    }
    engine.index_ += j;
    for (; j < take; ++j) out[j] = Uniform();
    out += take;
    n -= take;
  }
}

__attribute__((target("avx2"))) void Rng::UnitsFromBitsAvx2(
    const uint64_t* bits, double* out) {
  _mm256_storeu_pd(out, UnitFromBitsAvx2(Load(bits)));
}

#else  // !QDM_RNG_HAVE_AVX2

void Rng::FillUniformAvx2(double* out, size_t n) {
  for (size_t j = 0; j < n; ++j) out[j] = Uniform();
}

void Rng::UnitsFromBitsAvx2(const uint64_t* bits, double* out) {
  for (int j = 0; j < 4; ++j) out[j] = UnitFromBits(bits[j]);
}

#endif  // QDM_RNG_HAVE_AVX2

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
