#ifndef QDM_SIM_SIMD_H_
#define QDM_SIM_SIMD_H_

#include <complex>
#include <cstdint>
#include <utility>

#include "qdm/linalg/matrix.h"

namespace qdm {
namespace sim {

/// Which inner-loop tier the Statevector gate kernels run
/// (ExecutionConfig::simd, process-wide).
enum class SimdMode {
  kAuto = 0,    ///< The best tier the build + CPU support (DetectedTier).
  kScalar = 1,  ///< Force the scalar run primitives (the reference tier).
};

namespace simd {

/// Instruction tiers the inner-loop primitives are compiled for.
enum class Tier {
  kScalar,  ///< Portable std::complex loops (always available).
  kAvx2,    ///< 256-bit AVX2 lanes, two complex amplitudes per operation.
};

/// True when the vector kernels are compiled into this build at all
/// (QDM_ENABLE_SIMD=ON on an x86-64 GCC/Clang toolchain).
bool CompiledWithSimd();

/// The tier SimdMode::kAuto resolves to on this machine: kAvx2 when the
/// build compiled it and the CPU reports AVX2+FMA; kScalar otherwise.
/// Detected once on first call and cached for the process lifetime.
Tier DetectedTier();

/// Human-readable tier name ("scalar", "avx2") for logs and benches.
const char* TierName(Tier tier);

// ---------------------------------------------------------------------------
// Inner-loop run primitives.
//
// Each primitive has a *Scalar variant — the bit-identity reference,
// performing exactly the std::complex arithmetic of a plain per-amplitude
// loop, defined here so a kernel's short runs inline it — and an *Avx2
// variant that performs the SAME IEEE-754 operation sequence per amplitude
// (unfused multiplies/adds in scalar order, two interleaved re/im complex
// lanes per 256-bit op), so results are bit-identical to the scalar loops,
// not merely close. Builds without AVX2 support compile the *Avx2 symbols as
// forwards to the scalar variant; they are unreachable then because
// DetectedTier() reports kScalar.
// ---------------------------------------------------------------------------

/// One-qubit gate over `n` contiguous amplitude pairs from the disjoint runs
/// lo and hi:
///   lo[k] <- u00*lo[k] + u01*hi[k];  hi[k] <- u10*lo[k] + u11*hi[k].
inline void Apply1QRunScalar(Complex* __restrict lo, Complex* __restrict hi,
                             uint64_t n, Complex u00, Complex u01, Complex u10,
                             Complex u11) {
  for (uint64_t k = 0; k < n; ++k) {
    const Complex a0 = lo[k];
    const Complex a1 = hi[k];
    lo[k] = u00 * a0 + u01 * a1;
    hi[k] = u10 * a0 + u11 * a1;
  }
}
void Apply1QRunAvx2(Complex* lo, Complex* hi, uint64_t n, Complex u00,
                    Complex u01, Complex u10, Complex u11);

/// One-qubit gate on target qubit 0, where the `n` pairs are adjacent in
/// memory: (amp[2k], amp[2k+1]). The contiguous-run form above degenerates
/// to length-1 runs there; this layout keeps full vector width instead.
inline void Apply1QPairsRunScalar(Complex* amp, uint64_t n, Complex u00,
                                  Complex u01, Complex u10, Complex u11) {
  for (uint64_t k = 0; k < n; ++k) {
    const Complex a0 = amp[2 * k];
    const Complex a1 = amp[2 * k + 1];
    amp[2 * k] = u00 * a0 + u01 * a1;
    amp[2 * k + 1] = u10 * a0 + u11 * a1;
  }
}
void Apply1QPairsRunAvx2(Complex* amp, uint64_t n, Complex u00, Complex u01,
                         Complex u10, Complex u11);

/// Diagonal phase over `n` contiguous amplitudes:
///   amp[z] <- amp[z] * exp(i * scale * phases[z]).
/// The exp/polar evaluation stays scalar libm in BOTH variants (vector math
/// libraries round differently); the vector tier batches the complex
/// multiplies, which is what keeps it bit-identical to the scalar loop.
inline void DiagonalPhaseRunScalar(Complex* amp, const double* phases,
                                   double scale, uint64_t n) {
  for (uint64_t z = 0; z < n; ++z) {
    amp[z] *= std::polar(1.0, scale * phases[z]);
  }
}
void DiagonalPhaseRunAvx2(Complex* amp, const double* phases, double scale,
                          uint64_t n);

/// Exchanges `n` contiguous amplitudes between the disjoint runs x and y.
inline void SwapRunScalar(Complex* __restrict x, Complex* __restrict y,
                          uint64_t n) {
  for (uint64_t k = 0; k < n; ++k) std::swap(x[k], y[k]);
}
void SwapRunAvx2(Complex* x, Complex* y, uint64_t n);

}  // namespace simd
}  // namespace sim
}  // namespace qdm

#endif  // QDM_SIM_SIMD_H_
