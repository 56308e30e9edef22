// Parity tests for the Statevector gate kernels: every kernel must produce
// BIT-IDENTICAL amplitudes at any thread count AND under any SIMD tier (the
// kernel-level extension of the batch layer's determinism guarantee). The
// kernels are pure elementwise/pairwise updates over disjoint chunks whose
// vector lanes perform the exact scalar operation sequence, so parity here
// is exact equality (memcmp), not a tolerance.
//
// The reference is a set of test-local naive loops, one per kernel, that
// share no code with the production kernels: no chunks, no runs, no SIMD.
// Every kernel is checked against it at {scalar, auto} x {1, 2, 3, 8}
// threads with serial_cutoff 1, and once at the default config. On builds
// or machines without a vector tier, kAuto resolves to scalar and the
// matrix still runs (trivially green on the tier axis).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "qdm/circuit/circuit.h"
#include "qdm/common/rng.h"
#include "qdm/sim/statevector.h"

namespace qdm {
namespace sim {
namespace {

using circuit::Circuit;
using circuit::GateKind;
using circuit::SingleQubitMatrix;
using Amplitudes = std::vector<Complex>;

/// serial_cutoff 1: dimension() is never below it, so every kernel call
/// takes the parallel path even on 1-qubit states.
constexpr uint64_t kAlwaysParallel = 1;

/// The production serial scalar kernels, for whole-circuit comparisons.
constexpr ExecutionConfig kSerialConfig{1, kAlwaysParallel, SimdMode::kScalar};

/// Every config a kernel is checked at: {scalar, auto} x {1, 2, 3, 8}
/// threads with serial_cutoff 1, then the default config.
std::vector<ExecutionConfig> KernelConfigs() {
  std::vector<ExecutionConfig> configs;
  for (SimdMode mode : {SimdMode::kScalar, SimdMode::kAuto}) {
    for (int threads : {1, 2, 3, 8}) {
      configs.push_back(ExecutionConfig{threads, kAlwaysParallel, mode});
    }
  }
  configs.push_back(ExecutionConfig{});
  return configs;
}

std::string ConfigName(const ExecutionConfig& config) {
  if (config.num_threads == 0) return "default config";
  return std::to_string(config.num_threads) + " threads / " +
         (config.simd == SimdMode::kScalar ? "scalar" : "auto");
}

/// Sets the process-wide default config for one scope, restoring the
/// previous default on destruction.
class ScopedDefaultExecutionConfig {
 public:
  explicit ScopedDefaultExecutionConfig(const ExecutionConfig& config)
      : previous_(Statevector::DefaultExecutionConfig()) {
    Statevector::SetDefaultExecutionConfig(config);
  }
  ~ScopedDefaultExecutionConfig() {
    Statevector::SetDefaultExecutionConfig(previous_);
  }

 private:
  ExecutionConfig previous_;
};

// -- Naive reference kernels --------------------------------------------------

/// `u` on `target` wherever every `control_mask` bit is set.
void NaiveControlled1Q(Amplitudes* amp, uint64_t control_mask, int target,
                       const linalg::Matrix& u) {
  const uint64_t bit = uint64_t{1} << target;
  for (uint64_t i = 0; i < amp->size(); ++i) {
    if ((i & bit) != 0 || (i & control_mask) != control_mask) continue;
    const Complex a0 = (*amp)[i];
    const Complex a1 = (*amp)[i | bit];
    (*amp)[i] = u(0, 0) * a0 + u(0, 1) * a1;
    (*amp)[i | bit] = u(1, 0) * a0 + u(1, 1) * a1;
  }
}

/// Exchanges qubits a and b wherever every `control_mask` bit is set.
void NaiveControlledSwap(Amplitudes* amp, uint64_t control_mask, int a, int b) {
  const uint64_t bit_a = uint64_t{1} << a;
  const uint64_t bit_b = uint64_t{1} << b;
  for (uint64_t i = 0; i < amp->size(); ++i) {
    if ((i & control_mask) == control_mask && (i & bit_a) != 0 &&
        (i & bit_b) == 0) {
      std::swap((*amp)[i], (*amp)[(i & ~bit_a) | bit_b]);
    }
  }
}

/// exp(-i theta/2 Z(x)Z) on qubits a and b, one polar per amplitude.
void NaiveRzz(Amplitudes* amp, int a, int b, double theta) {
  for (uint64_t z = 0; z < amp->size(); ++z) {
    const bool equal = ((z >> a) & 1) == ((z >> b) & 1);
    (*amp)[z] *= std::polar(1.0, equal ? -theta / 2 : theta / 2);
  }
}

void NaiveDiagonalPhase(Amplitudes* amp,
                        const std::function<double(uint64_t)>& phase) {
  for (uint64_t z = 0; z < amp->size(); ++z) {
    (*amp)[z] *= std::polar(1.0, phase(z));
  }
}

// -- Harness ------------------------------------------------------------------

Statevector RandomState(int num_qubits, Rng* rng) {
  std::vector<Complex> amps(size_t{1} << num_qubits);
  for (Complex& a : amps) a = Complex(rng->Uniform(-1, 1), rng->Uniform(-1, 1));
  return Statevector::FromAmplitudes(std::move(amps), /*normalize=*/true);
}

void ExpectBitIdentical(const Amplitudes& expected, const Amplitudes& actual,
                        const std::string& context) {
  ASSERT_EQ(expected.size(), actual.size()) << context;
  for (size_t z = 0; z < expected.size(); ++z) {
    const Complex a = expected[z];
    const Complex b = actual[z];
    ASSERT_EQ(std::memcmp(&a, &b, sizeof(Complex)), 0)
        << context << ": amplitudes differ at z=" << z << " (" << a.real()
        << "," << a.imag() << ") vs (" << b.real() << "," << b.imag() << ")";
  }
}

/// Applies `kernel` to copies of one random state at every KernelConfigs()
/// entry and asserts each result equals `reference` applied to the same
/// amplitudes, bit for bit.
void CheckKernel(int num_qubits,
                 const std::function<void(Statevector*)>& kernel,
                 const std::function<void(Amplitudes*)>& reference,
                 const std::string& context) {
  Rng rng(0xC0FFEE + num_qubits);
  const Statevector initial = RandomState(num_qubits, &rng);
  Amplitudes expected = initial.amplitudes();
  reference(&expected);
  for (const ExecutionConfig& config : KernelConfigs()) {
    ScopedDefaultExecutionConfig scoped(config);
    Statevector sv = initial;
    kernel(&sv);
    ExpectBitIdentical(expected, sv.amplitudes(),
                       context + " @ " + ConfigName(config));
  }
}

void CheckApply1Q(int n, int q, const linalg::Matrix& u,
                  const std::string& context) {
  CheckKernel(
      n, [&](Statevector* sv) { sv->Apply1Q(u, q); },
      [&](Amplitudes* amp) { NaiveControlled1Q(amp, 0, q, u); }, context);
}

void CheckControlled1Q(int n, const std::vector<int>& controls, int target,
                       const linalg::Matrix& u, const std::string& context) {
  uint64_t mask = 0;
  for (int c : controls) mask |= uint64_t{1} << c;
  CheckKernel(
      n, [&](Statevector* sv) { sv->ApplyControlled1Q(controls, target, u); },
      [&](Amplitudes* amp) { NaiveControlled1Q(amp, mask, target, u); },
      context);
}

void CheckSwap(int n, int a, int b, const std::string& context) {
  CheckKernel(
      n, [&](Statevector* sv) { sv->ApplySwap(a, b); },
      [&](Amplitudes* amp) { NaiveControlledSwap(amp, 0, a, b); }, context);
}

void CheckControlledSwap(int n, int control, int a, int b,
                         const std::string& context) {
  CheckKernel(
      n, [&](Statevector* sv) { sv->ApplyControlledSwap(control, a, b); },
      [&](Amplitudes* amp) {
        NaiveControlledSwap(amp, uint64_t{1} << control, a, b);
      },
      context);
}

std::string Qubits(int n, std::initializer_list<int> qubits) {
  std::string out = "n=" + std::to_string(n);
  for (int q : qubits) out += " " + std::to_string(q);
  return out;
}

// -- Every kernel against the naive reference ---------------------------------

TEST(StatevectorParallelTest, Apply1QParityEveryTargetQubit) {
  const linalg::Matrix u = SingleQubitMatrix(GateKind::kU3, {0.7, 0.3, 1.1});
  for (int n = 1; n <= 12; ++n) {
    for (int q = 0; q < n; ++q) {  // Includes target = highest qubit (n-1).
      CheckApply1Q(n, q, u, "Apply1Q " + Qubits(n, {q}));
    }
  }
}

TEST(StatevectorParallelTest, ApplyControlled1QParityIncludingMultiControl) {
  const linalg::Matrix x = SingleQubitMatrix(GateKind::kX, {});
  const linalg::Matrix rz = SingleQubitMatrix(GateKind::kRZ, {0.41});
  for (int n = 2; n <= 12; ++n) {
    CheckControlled1Q(n, {0}, n - 1, x,
                      "CX control=0 target=highest n=" + std::to_string(n));
    CheckControlled1Q(n, {n - 1}, 0, rz,
                      "CRZ control=highest target=0 n=" + std::to_string(n));
    if (n >= 4) {
      CheckControlled1Q(n, {0, 1, 2}, n - 1, x,  // Multi-control.
                        "CCCX n=" + std::to_string(n));
    }
  }
}

// Every target with every control set of up to two qubits, 1-8 qubits.
TEST(StatevectorParallelTest, ApplyControlled1QEveryControlSetUpToTwo) {
  const linalg::Matrix u = SingleQubitMatrix(GateKind::kU3, {1.3, -0.4, 0.8});
  for (int n = 1; n <= 8; ++n) {
    for (int t = 0; t < n; ++t) {
      CheckControlled1Q(n, {}, t, u, "C^0-U " + Qubits(n, {t}));
      for (int c1 = 0; c1 < n; ++c1) {
        if (c1 == t) continue;
        CheckControlled1Q(n, {c1}, t, u, "C-U " + Qubits(n, {c1, t}));
        for (int c2 = c1 + 1; c2 < n; ++c2) {
          if (c2 == t) continue;
          CheckControlled1Q(n, {c1, c2}, t, u,
                            "CC-U " + Qubits(n, {c1, c2, t}));
        }
      }
    }
  }
}

TEST(StatevectorParallelTest, ApplySwapParity) {
  for (int n = 2; n <= 12; ++n) {
    CheckSwap(n, 0, n - 1, "Swap(0, highest) n=" + std::to_string(n));
    if (n >= 4) CheckSwap(n, 1, n / 2, "Swap(1, mid) n=" + std::to_string(n));
  }
}

// Every ordered swap pair, 2-8 qubits.
TEST(StatevectorParallelTest, ApplySwapEveryPair) {
  for (int n = 2; n <= 8; ++n) {
    for (int a = 0; a < n; ++a) {
      for (int b = 0; b < n; ++b) {
        if (a != b) CheckSwap(n, a, b, "Swap " + Qubits(n, {a, b}));
      }
    }
  }
}

TEST(StatevectorParallelTest, ApplyControlledSwapParity) {
  for (int n = 3; n <= 12; ++n) {
    CheckControlledSwap(n, 0, 1, n - 1,
                        "CSwap(0,1,highest) n=" + std::to_string(n));
    CheckControlledSwap(n, n - 1, 0, 1,
                        "CSwap(highest,0,1) n=" + std::to_string(n));
  }
}

// Every (control, a, b) triple with the control off both targets, including
// the a == b no-op, 2-8 qubits.
TEST(StatevectorParallelTest, ApplyControlledSwapEveryTriple) {
  for (int n = 2; n <= 8; ++n) {
    for (int c = 0; c < n; ++c) {
      for (int a = 0; a < n; ++a) {
        for (int b = 0; b < n; ++b) {
          if (c == a || c == b) continue;
          CheckControlledSwap(n, c, a, b, "CSwap " + Qubits(n, {c, a, b}));
        }
      }
    }
  }
}

// Every ordered RZZ pair, a == b included, 1-8 qubits, and the highest
// pair up to 12.
TEST(StatevectorParallelTest, ApplyRzzEveryPair) {
  const double theta = 0.731;
  const auto check = [&](int n, int a, int b) {
    CheckKernel(
        n,
        [&](Statevector* sv) {
          sv->ApplyGate(circuit::Gate{GateKind::kRZZ, {a, b}, {theta}});
        },
        [&](Amplitudes* amp) { NaiveRzz(amp, a, b, theta); },
        "RZZ " + Qubits(n, {a, b}));
  };
  for (int n = 1; n <= 8; ++n) {
    for (int a = 0; a < n; ++a) {
      for (int b = 0; b < n; ++b) check(n, a, b);
    }
  }
  for (int n = 9; n <= 12; ++n) check(n, n - 2, n - 1);
}

TEST(StatevectorParallelTest, ApplyDiagonalPhaseCallableParity) {
  const auto phase = [](uint64_t z) {
    return 0.013 * static_cast<double>(z % 101);
  };
  for (int n = 1; n <= 12; ++n) {
    CheckKernel(
        n, [&](Statevector* sv) { sv->ApplyDiagonalPhase(phase); },
        [&](Amplitudes* amp) { NaiveDiagonalPhase(amp, phase); },
        "DiagonalPhase(callable) n=" + std::to_string(n));
  }
}

TEST(StatevectorParallelTest, ApplyDiagonalPhasePrecomputedParity) {
  Rng rng(99);
  for (int n = 1; n <= 12; ++n) {
    std::vector<double> phases(size_t{1} << n);
    for (double& p : phases) p = rng.Uniform(-3.0, 3.0);
    CheckKernel(
        n, [&](Statevector* sv) { sv->ApplyDiagonalPhase(phases, -0.7); },
        [&](Amplitudes* amp) {
          NaiveDiagonalPhase(amp, [&](uint64_t z) { return -0.7 * phases[z]; });
        },
        "DiagonalPhase(precomputed) n=" + std::to_string(n));
  }
}

// -- Whole circuits, odd chunks, config --------------------------------------

// Random circuits over every gate kind ApplyGate dispatches, 1-12 qubits:
// the whole-circuit state must match bit-for-bit at every config.
TEST(StatevectorParallelTest, RandomCircuitParity) {
  for (int n = 1; n <= 12; ++n) {
    Rng rng(7000 + n);
    Circuit c(n);
    for (int g = 0; g < 40; ++g) {
      const int q = static_cast<int>(rng.UniformInt(0, n - 1));
      const double theta = rng.Uniform(-M_PI, M_PI);
      switch (rng.UniformInt(0, n >= 3 ? 8 : (n >= 2 ? 6 : 2))) {
        case 0: c.H(q); break;
        case 1: c.U3(q, theta, 0.2, -0.9); break;
        case 2: c.RX(q, theta); break;
        case 3: c.CX(q, (q + 1) % n); break;
        case 4: c.Swap(q, (q + 1) % n); break;
        case 5: c.CPhase(q, (q + 1) % n, theta); break;
        case 6: c.RZZ(q, (q + 1) % n, theta); break;
        case 7: c.CCX(q, (q + 1) % n, (q + 2) % n); break;
        case 8: c.CSwap(q, (q + 1) % n, (q + 2) % n); break;
      }
    }
    Statevector serial(n);
    {
      ScopedDefaultExecutionConfig scoped(kSerialConfig);
      serial.ApplyCircuit(c);
    }
    for (const ExecutionConfig& config : KernelConfigs()) {
      ScopedDefaultExecutionConfig scoped(config);
      Statevector parallel(n);
      parallel.ApplyCircuit(c);
      ExpectBitIdentical(
          serial.amplitudes(), parallel.amplitudes(),
          "random circuit n=" + std::to_string(n) + " @ " + ConfigName(config));
    }
  }
}

// States below the serial cutoff run on the caller even with many threads
// configured, and still match the reference. This pins the cutoff
// semantics: dimension() < cutoff stays serial.
TEST(StatevectorParallelTest, BelowCutoffStatesRunSerialAndMatch) {
  const linalg::Matrix h = SingleQubitMatrix(GateKind::kH, {});
  for (int n = 1; n <= 8; ++n) {
    Rng rng(31 + n);
    const Statevector initial = RandomState(n, &rng);

    Amplitudes expected = initial.amplitudes();
    NaiveControlled1Q(&expected, 0, n - 1, h);

    Statevector below_cutoff = initial;
    {
      // 2^n < 2^20 for every n here, so this resolves to the serial path.
      ScopedDefaultExecutionConfig scoped(
          ExecutionConfig{8, uint64_t{1} << 20});
      below_cutoff.Apply1Q(h, n - 1);
    }
    ExpectBitIdentical(expected, below_cutoff.amplitudes(),
                       "below-cutoff n=" + std::to_string(n));
  }
}

TEST(StatevectorParallelTest, ConfigResolutionGlobalThenBuiltIn) {
  // Built-in defaults.
  EXPECT_EQ(Statevector::ResolvedSerialCutoff(),
            Statevector::kDefaultSerialCutoff);
  EXPECT_GE(Statevector::ResolvedNumThreads(), 1);
  {
    ScopedDefaultExecutionConfig scoped(ExecutionConfig{3, 128});
    EXPECT_EQ(Statevector::ResolvedNumThreads(), 3);
    EXPECT_EQ(Statevector::ResolvedSerialCutoff(), 128u);
  }
  // The scoped default was restored.
  EXPECT_EQ(Statevector::ResolvedSerialCutoff(),
            Statevector::kDefaultSerialCutoff);
}

// Paths that construct state vectors internally (RunCircuit here, and the
// algo/ bridges through it) pick up the process-wide default config.
TEST(StatevectorParallelTest, GlobalDefaultConfigReachesInternalStates) {
  Circuit c(5);
  c.H(0);
  for (int q = 0; q + 1 < 5; ++q) c.CX(q, q + 1);

  Statevector serial(5);
  {
    ScopedDefaultExecutionConfig scoped(kSerialConfig);
    serial.ApplyCircuit(c);
  }

  ScopedDefaultExecutionConfig scoped(
      ExecutionConfig{8, kAlwaysParallel, SimdMode::kScalar});
  const Statevector via_global = RunCircuit(c);
  ExpectBitIdentical(serial.amplitudes(), via_global.amplitudes(),
                     "RunCircuit under global config");
}

// Unaligned / odd-step coverage for the SIMD inner runs: q = 0 (interleaved
// pairs, no contiguous runs), q = 1 (runs exactly one vector width), and
// q = n-1 (one group that every chunk slices), swept with thread counts
// that do NOT divide the pair range evenly, so chunks start and end on
// leading/trailing partial runs shorter than one vector width.
TEST(StatevectorParallelTest, SimdPartialRunsAndOddChunkBoundaries) {
  const linalg::Matrix u = SingleQubitMatrix(GateKind::kU3, {0.7, 0.3, 1.1});
  const linalg::Matrix x = SingleQubitMatrix(GateKind::kX, {});
  for (int n : {3, 5, 9}) {
    for (int q : {0, 1, n - 1}) {
      CheckApply1Q(n, q, u, "odd-step Apply1Q " + Qubits(n, {q}));
      for (int threads : {3, 5, 7}) {
        Rng rng(0xABC + n * 16 + q);
        const Statevector initial = RandomState(n, &rng);
        Amplitudes expected = initial.amplitudes();
        NaiveControlled1Q(&expected, 0, q, u);
        for (SimdMode mode : {SimdMode::kScalar, SimdMode::kAuto}) {
          const ExecutionConfig config{threads, kAlwaysParallel, mode};
          ScopedDefaultExecutionConfig scoped(config);
          Statevector sv = initial;
          sv.Apply1Q(u, q);
          ExpectBitIdentical(expected, sv.amplitudes(),
                             "odd-chunk Apply1Q " + Qubits(n, {q}) + " @ " +
                                 ConfigName(config));
        }
      }
    }
    // Controls straddling the target exercise controls above and below the
    // target on the same gate.
    CheckControlled1Q(n, {0, n - 1}, n / 2, x,
                      "straddling controls n=" + std::to_string(n));
    CheckSwap(n, 1, n - 1, "odd-step Swap(1, highest) n=" + std::to_string(n));
  }
}

// ExecutionConfig::simd resolves process default -> detection, and
// SimdMode::kScalar always lands on the scalar tier.
TEST(StatevectorParallelTest, SimdResolutionGlobalThenDetected) {
  // Built-in default (kAuto) = whatever the build + CPU detection reports.
  EXPECT_EQ(Statevector::ResolvedSimdTier(), simd::DetectedTier());
  {
    ScopedDefaultExecutionConfig scoped(
        ExecutionConfig{0, 0, SimdMode::kScalar});
    EXPECT_EQ(Statevector::ResolvedSimdTier(), simd::Tier::kScalar);
  }
  EXPECT_EQ(Statevector::ResolvedSimdTier(), simd::DetectedTier());
  // Tier names are stable strings (the perf-gate CI step logs them).
  EXPECT_STREQ(simd::TierName(simd::Tier::kScalar), "scalar");
  EXPECT_STREQ(simd::TierName(simd::Tier::kAvx2), "avx2");
  if (!simd::CompiledWithSimd()) {
    EXPECT_EQ(simd::DetectedTier(), simd::Tier::kScalar);
  }
}

TEST(StatevectorParallelDeathTest, DiagonalLengthMismatchIsChecked) {
  Statevector sv(3);  // dimension 8.
  const std::vector<double> wrong_length(4, 0.1);
  EXPECT_DEATH(sv.ApplyDiagonalPhase(wrong_length, 1.0),
               "diagonal length 4 must equal the state dimension 8");
}

TEST(StatevectorParallelDeathTest, ControlledSwapOutOfRangeQubitIsChecked) {
  Statevector sv(3);
  EXPECT_DEATH(sv.ApplyControlledSwap(7, 1, 2),
               "qubit 7 is out of range for a 3-qubit state");
  EXPECT_DEATH(sv.ApplyControlledSwap(0, 3, 1),
               "qubit 3 is out of range for a 3-qubit state");
  EXPECT_DEATH(sv.ApplyControlledSwap(0, 1, 8),
               "qubit 8 is out of range for a 3-qubit state");
}

TEST(StatevectorParallelDeathTest, ControlledSwapNegativeQubitIsChecked) {
  Statevector sv(3);
  EXPECT_DEATH(sv.ApplyControlledSwap(-1, 1, 2),
               "qubit -1 is out of range for a 3-qubit state");
  EXPECT_DEATH(sv.ApplyControlledSwap(0, -1, 2),
               "qubit -1 is out of range for a 3-qubit state");
  EXPECT_DEATH(sv.ApplyControlledSwap(0, 1, -2),
               "qubit -2 is out of range for a 3-qubit state");
}

TEST(StatevectorParallelDeathTest, RzzOutOfRangeQubitIsChecked) {
  Statevector sv(3);
  EXPECT_DEATH(sv.ApplyGate(circuit::Gate{GateKind::kRZZ, {0, 3}, {0.5}}),
               "qubit 3 is out of range for a 3-qubit state");
  EXPECT_DEATH(sv.ApplyGate(circuit::Gate{GateKind::kRZZ, {64, 1}, {0.5}}),
               "qubit 64 is out of range for a 3-qubit state");
}

TEST(StatevectorParallelDeathTest, RzzNegativeQubitIsChecked) {
  Statevector sv(3);
  EXPECT_DEATH(sv.ApplyGate(circuit::Gate{GateKind::kRZZ, {-1, 2}, {0.5}}),
               "qubit -1 is out of range for a 3-qubit state");
  EXPECT_DEATH(sv.ApplyGate(circuit::Gate{GateKind::kRZZ, {1, -3}, {0.5}}),
               "qubit -3 is out of range for a 3-qubit state");
}

}  // namespace
}  // namespace sim
}  // namespace qdm
