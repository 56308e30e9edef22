#include "qdm/sim/statevector.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "qdm/common/strings.h"
#include "qdm/common/thread_pool.h"
#include "qdm/sim/simd.h"

namespace qdm {
namespace sim {

namespace {

bool IsPowerOfTwo(size_t n) { return n != 0 && (n & (n - 1)) == 0; }

int Log2(size_t n) {
  int k = 0;
  while ((size_t{1} << k) < n) ++k;
  return k;
}

// Process-wide ExecutionConfig, stored as independent atomics so the
// per-gate resolution path is lock-free (a mutex here would serialize every
// gate call of every thread in the process). The knobs are set/read
// independently, so a reader racing a concurrent SetDefaultExecutionConfig
// can observe one old and one new knob — acceptable for a tuning knob that
// callers set at startup or around a test scope, never mid-kernel.
std::atomic<int> g_default_num_threads{0};
std::atomic<uint64_t> g_default_serial_cutoff{0};
std::atomic<int> g_default_simd_mode{0};

// Maps the compact index `p` onto the basis index with a zero re-inserted at
// every set bit of `mask`, lowest position first: bits below a position pass
// through, bits at or above it shift up by one. Counting p up therefore
// enumerates, once each, the basis indices whose `mask` bits are all clear.
inline uint64_t InsertZeroBits(uint64_t p, uint64_t mask) {
  for (; mask != 0; mask &= mask - 1) {
    const uint64_t below = (mask & (~mask + 1)) - 1;
    p = ((p & ~below) << 1) | (p & below);
  }
  return p;
}

// The number of indices below `n` whose `mask` bits are all clear: the size
// of the compact range InsertZeroBits expands. (A loop, not
// __builtin_popcountll, which is a libgcc call without -mpopcnt.)
inline uint64_t CompactSize(uint64_t n, uint64_t mask) {
  for (; mask != 0; mask &= mask - 1) n >>= 1;
  return n;
}

// The one run walker of every gate kernel. Walks the compact range
// [begin, end) (see InsertZeroBits) and calls run(base, len) for each
// stretch that expands to the len consecutive indices base, base + 1, ...:
// runs end where p crosses a multiple of 2^(lowest set bit of `mask`), so a
// chunk boundary yields a leading and a trailing partial run. An empty mask
// is one run.
template <typename Run>
inline void ForEachRun(uint64_t begin, uint64_t end, uint64_t mask,
                       const Run& run) {
  if (mask == 0) {
    run(begin, end - begin);
    return;
  }
  const uint64_t width = mask & (~mask + 1);
  uint64_t base = InsertZeroBits(begin, mask);
  for (uint64_t p = begin; p < end;) {
    const uint64_t len = std::min(width - (p & (width - 1)), end - p);
    run(base, len);
    p += len;
    // The next index with every `mask` bit clear after the run's last one.
    base = (((base + len - 1) | mask) + 1) & ~mask;
  }
}

// True when a kernel hands its runs to the simd::*Avx2 primitives: the
// resolved tier is avx2 and every run holds two or more elements (bit 0 is
// not in `mask`). A shorter run has no vector work, so it inlines the
// *Scalar primitive, which computes the same bits without a call.
bool VectorRuns(uint64_t mask) {
  return (mask & 1) == 0 &&
         Statevector::ResolvedSimdTier() == simd::Tier::kAvx2;
}

}  // namespace

void Statevector::SetDefaultExecutionConfig(const ExecutionConfig& config) {
  g_default_num_threads.store(config.num_threads, std::memory_order_relaxed);
  g_default_serial_cutoff.store(config.serial_cutoff,
                                std::memory_order_relaxed);
  g_default_simd_mode.store(static_cast<int>(config.simd),
                            std::memory_order_relaxed);
}

ExecutionConfig Statevector::DefaultExecutionConfig() {
  return ExecutionConfig{
      g_default_num_threads.load(std::memory_order_relaxed),
      g_default_serial_cutoff.load(std::memory_order_relaxed),
      static_cast<SimdMode>(
          g_default_simd_mode.load(std::memory_order_relaxed))};
}

int Statevector::ResolvedNumThreads() {
  const int threads = g_default_num_threads.load(std::memory_order_relaxed);
  return threads > 0 ? threads : ThreadPool::DefaultNumThreads();
}

uint64_t Statevector::ResolvedSerialCutoff() {
  const uint64_t cutoff =
      g_default_serial_cutoff.load(std::memory_order_relaxed);
  return cutoff != 0 ? cutoff : kDefaultSerialCutoff;
}

simd::Tier Statevector::ResolvedSimdTier() {
  if (static_cast<SimdMode>(g_default_simd_mode.load(
          std::memory_order_relaxed)) == SimdMode::kScalar) {
    return simd::Tier::kScalar;
  }
  return simd::DetectedTier();
}

int Statevector::NumChunks(uint64_t n, uint64_t work) {
  if (work < ResolvedSerialCutoff()) return 1;
  return static_cast<int>(
      std::min<uint64_t>(static_cast<uint64_t>(ResolvedNumThreads()), n));
}

void Statevector::RunChunks(
    uint64_t n, int chunks,
    const std::function<void(uint64_t, uint64_t)>& body) {
  // The caller participates in ThreadPool::ForEach, and the chunk boundaries
  // depend only on (n, chunks) — never on which worker picks which chunk —
  // so any scheduling order writes the exact same values.
  const uint64_t chunk_size = (n + chunks - 1) / chunks;
  ThreadPool::Shared().ForEach(chunks, /*max_workers=*/0, [&](int, int c) {
    const uint64_t begin = chunk_size * static_cast<uint64_t>(c);
    const uint64_t end = std::min(begin + chunk_size, n);
    if (begin < end) body(begin, end);
  });
}

Statevector::Statevector(int num_qubits) : num_qubits_(num_qubits) {
  QDM_CHECK_GT(num_qubits, 0);
  QDM_CHECK_LE(num_qubits, 28) << "state vector would exceed memory budget";
  amplitudes_.assign(size_t{1} << num_qubits, Complex(0, 0));
  amplitudes_[0] = Complex(1, 0);
}

Statevector Statevector::FromAmplitudes(std::vector<Complex> amplitudes,
                                        bool normalize) {
  QDM_CHECK(IsPowerOfTwo(amplitudes.size()))
      << "amplitude vector length must be a power of two";
  Statevector sv;
  sv.num_qubits_ = Log2(amplitudes.size());
  QDM_CHECK_GT(sv.num_qubits_, 0);
  sv.amplitudes_ = std::move(amplitudes);
  if (normalize) sv.Normalize();
  return sv;
}

uint64_t Statevector::QubitBit(int q) const {
  QDM_CHECK(q >= 0 && q < num_qubits_)
      << ": qubit " << q << " is out of range for a " << num_qubits_
      << "-qubit state";
  return uint64_t{1} << q;
}

void Statevector::Apply1Q(const linalg::Matrix& u, int q) {
  ApplyMasked1Q(/*control_mask=*/0, q, u);
}

void Statevector::ApplyControlled1Q(const std::vector<int>& controls,
                                    int target,
                                    const linalg::Matrix& u) {
  uint64_t control_mask = 0;
  for (int c : controls) {
    QDM_CHECK(c != target);
    control_mask |= QubitBit(c);
  }
  ApplyMasked1Q(control_mask, target, u);
}

void Statevector::ApplyMasked1Q(uint64_t control_mask, int target,
                                const linalg::Matrix& u) {
  QDM_CHECK(u.rows() == 2 && u.cols() == 2);
  const uint64_t step = QubitBit(target);
  const Complex u00 = u(0, 0), u01 = u(0, 1), u10 = u(1, 0), u11 = u(1, 1);
  Complex* amp = amplitudes_.data();
  if (target == 0) {
    // Target-0 pairs (amp[2k], amp[2k + 1]) are adjacent in memory, so this
    // walk runs over pair indices k, where the controls sit one bit lower,
    // and hands each run of adjacent pairs to the interleaved-pair primitive.
    const uint64_t mask = control_mask >> 1;
    const bool vector = VectorRuns(mask);
    ForChunks(CompactSize(dimension() >> 1, mask), dimension(),
              [=](uint64_t begin, uint64_t end) {
                ForEachRun(begin, end, mask, [&](uint64_t k, uint64_t len) {
                  Complex* pairs = amp + 2 * (k | mask);
                  if (vector) {
                    simd::Apply1QPairsRunAvx2(pairs, len, u00, u01, u10, u11);
                  } else {
                    simd::Apply1QPairsRunScalar(pairs, len, u00, u01, u10, u11);
                  }
                });
              });
    return;
  }
  // Every (lo, lo + step) pair with the target bit clear and all controls
  // set, in runs of contiguous lo; a failing control is never visited.
  const uint64_t mask = control_mask | step;
  const bool vector = VectorRuns(mask);
  ForChunks(CompactSize(dimension(), mask), dimension(),
            [=](uint64_t begin, uint64_t end) {
              ForEachRun(begin, end, mask, [&](uint64_t base, uint64_t len) {
                Complex* lo = amp + (base | control_mask);
                if (vector) {
                  simd::Apply1QRunAvx2(lo, lo + step, len, u00, u01, u10, u11);
                } else {
                  simd::Apply1QRunScalar(lo, lo + step, len, u00, u01, u10,
                                         u11);
                }
              });
            });
}

void Statevector::ApplySwap(int a, int b) {
  QDM_CHECK(a != b);
  SwapMasked(/*control_mask=*/0, a, b);
}

void Statevector::ApplyControlledSwap(int control, int a, int b) {
  QDM_CHECK(control != a && control != b);
  SwapMasked(QubitBit(control), a, b);
}

void Statevector::SwapMasked(uint64_t control_mask, int a, int b) {
  const uint64_t bit_a = QubitBit(a);
  const uint64_t bit_b = QubitBit(b);
  if (a == b) return;
  // Each mismatched pair once: the block at base|bit_a exchanges with the
  // disjoint block at base|bit_b. Pure data movement, and chunks partition
  // the pairs, so no two workers touch the same amplitude.
  const uint64_t mask = control_mask | bit_a | bit_b;
  const bool vector = VectorRuns(mask);
  Complex* amp = amplitudes_.data();
  ForChunks(CompactSize(dimension(), mask), dimension(),
            [=](uint64_t begin, uint64_t end) {
              ForEachRun(begin, end, mask, [&](uint64_t base, uint64_t len) {
                Complex* x = amp + (base | control_mask | bit_a);
                Complex* y = amp + (base | control_mask | bit_b);
                if (vector) {
                  simd::SwapRunAvx2(x, y, len);
                } else {
                  simd::SwapRunScalar(x, y, len);
                }
              });
            });
}

void Statevector::ApplyDiagonalPhase(
    const std::function<double(uint64_t)>& phase) {
  // The std::function stays one scalar call per z; staging its results in a
  // block buffer lets the run primitive batch the complex multiplies.
  // scale = 1.0 is exact (1.0 * t == t bitwise), so this matches the direct
  // polar(1.0, phase(z)) loop bit for bit.
  const bool vector = VectorRuns(0);
  Complex* amp = amplitudes_.data();
  ForChunks(dimension(), dimension(),
            [&phase, amp, vector](uint64_t begin, uint64_t end) {
              constexpr uint64_t kBlock = 128;
              double staged[kBlock];
              for (uint64_t z0 = begin; z0 < end; z0 += kBlock) {
                const uint64_t len = std::min(kBlock, end - z0);
                for (uint64_t k = 0; k < len; ++k) staged[k] = phase(z0 + k);
                if (vector) {
                  simd::DiagonalPhaseRunAvx2(amp + z0, staged, 1.0, len);
                } else {
                  simd::DiagonalPhaseRunScalar(amp + z0, staged, 1.0, len);
                }
              }
            });
}

void Statevector::ApplyDiagonalPhase(const std::vector<double>& phases,
                                     double scale) {
  QDM_CHECK_EQ(phases.size(), amplitudes_.size())
      << "ApplyDiagonalPhase: diagonal length " << phases.size()
      << " must equal the state dimension " << amplitudes_.size();
  const bool vector = VectorRuns(0);
  const double* phase = phases.data();
  Complex* amp = amplitudes_.data();
  ForChunks(dimension(), dimension(), [=](uint64_t begin, uint64_t end) {
    if (vector) {
      simd::DiagonalPhaseRunAvx2(amp + begin, phase + begin, scale,
                                 end - begin);
    } else {
      simd::DiagonalPhaseRunScalar(amp + begin, phase + begin, scale,
                                   end - begin);
    }
  });
}

void Statevector::ApplyGate(const circuit::Gate& gate) {
  using circuit::GateKind;
  QDM_CHECK_EQ(gate.param_ref, -1)
      << "cannot simulate a symbolic gate; call BindParameters first";
  switch (gate.kind) {
    case GateKind::kI:
      return;
    case GateKind::kX:
    case GateKind::kY:
    case GateKind::kZ:
    case GateKind::kH:
    case GateKind::kS:
    case GateKind::kSdg:
    case GateKind::kT:
    case GateKind::kTdg:
    case GateKind::kRX:
    case GateKind::kRY:
    case GateKind::kRZ:
    case GateKind::kPhase:
    case GateKind::kU3:
      Apply1Q(circuit::SingleQubitMatrix(gate.kind, gate.params),
              gate.qubits[0]);
      return;
    case GateKind::kCX:
      ApplyControlled1Q({gate.qubits[0]}, gate.qubits[1],
                        circuit::SingleQubitMatrix(GateKind::kX, {}));
      return;
    case GateKind::kCY:
      ApplyControlled1Q({gate.qubits[0]}, gate.qubits[1],
                        circuit::SingleQubitMatrix(GateKind::kY, {}));
      return;
    case GateKind::kCZ:
      ApplyControlled1Q({gate.qubits[0]}, gate.qubits[1],
                        circuit::SingleQubitMatrix(GateKind::kZ, {}));
      return;
    case GateKind::kSwap:
      ApplySwap(gate.qubits[0], gate.qubits[1]);
      return;
    case GateKind::kCRZ:
      ApplyControlled1Q({gate.qubits[0]}, gate.qubits[1],
                        circuit::SingleQubitMatrix(GateKind::kRZ, gate.params));
      return;
    case GateKind::kCPhase:
      ApplyControlled1Q(
          {gate.qubits[0]}, gate.qubits[1],
          circuit::SingleQubitMatrix(GateKind::kPhase, gate.params));
      return;
    case GateKind::kRZZ: {
      // RZZ(theta) = exp(-i theta/2 Z(x)Z): phase -theta/2 when bits equal,
      // +theta/2 when they differ.
      const uint64_t bit_a = QubitBit(gate.qubits[0]);
      const uint64_t bit_b = QubitBit(gate.qubits[1]);
      const double half = gate.params[0] / 2;
      const Complex equal_phase = std::polar(1.0, -half);
      const Complex differ_phase = std::polar(1.0, half);
      Complex* amp = amplitudes_.data();
      ForChunks(dimension(), dimension(), [=](uint64_t begin, uint64_t end) {
        for (uint64_t z = begin; z < end; ++z) {
          const bool equal = ((z & bit_a) != 0) == ((z & bit_b) != 0);
          amp[z] *= equal ? equal_phase : differ_phase;
        }
      });
      return;
    }
    case GateKind::kCCX:
      ApplyControlled1Q({gate.qubits[0], gate.qubits[1]}, gate.qubits[2],
                        circuit::SingleQubitMatrix(GateKind::kX, {}));
      return;
    case GateKind::kCSwap:
      ApplyControlledSwap(gate.qubits[0], gate.qubits[1], gate.qubits[2]);
      return;
  }
  QDM_CHECK(false) << "unhandled gate kind";
}

void Statevector::ApplyCircuit(const circuit::Circuit& c) {
  QDM_CHECK_EQ(c.num_qubits(), num_qubits_);
  QDM_CHECK_EQ(c.num_parameters(), 0)
      << "cannot simulate a circuit with unbound parameters";
  for (const circuit::Gate& gate : c.gates()) ApplyGate(gate);
}

double Statevector::ProbabilityOfOne(int q) const {
  QDM_CHECK(q >= 0 && q < num_qubits_);
  const uint64_t bit = uint64_t{1} << q;
  double p = 0.0;
  for (size_t z = 0; z < amplitudes_.size(); ++z) {
    if (z & bit) p += std::norm(amplitudes_[z]);
  }
  return p;
}

std::vector<double> Statevector::Probabilities() const {
  std::vector<double> probs(amplitudes_.size());
  for (size_t z = 0; z < amplitudes_.size(); ++z) {
    probs[z] = std::norm(amplitudes_[z]);
  }
  return probs;
}

int Statevector::MeasureQubit(int q, Rng* rng) {
  const double p1 = ProbabilityOfOne(q);
  const int outcome = rng->Bernoulli(p1) ? 1 : 0;
  const uint64_t bit = uint64_t{1} << q;
  const double norm = std::sqrt(outcome == 1 ? p1 : 1.0 - p1);
  QDM_CHECK_GT(norm, 0.0);
  for (size_t z = 0; z < amplitudes_.size(); ++z) {
    const bool matches = ((z & bit) != 0) == (outcome == 1);
    amplitudes_[z] = matches ? amplitudes_[z] / norm : Complex(0, 0);
  }
  return outcome;
}

uint64_t Statevector::MeasureAll(Rng* rng) {
  const uint64_t outcome = SampleBasisState(rng);
  amplitudes_.assign(amplitudes_.size(), Complex(0, 0));
  amplitudes_[outcome] = Complex(1, 0);
  return outcome;
}

uint64_t Statevector::SampleBasisState(Rng* rng) const {
  double r = rng->Uniform();
  double acc = 0.0;
  for (size_t z = 0; z < amplitudes_.size(); ++z) {
    acc += std::norm(amplitudes_[z]);
    if (r < acc) return z;
  }
  return amplitudes_.size() - 1;
}

std::map<uint64_t, int> Statevector::Sample(int shots, Rng* rng) const {
  std::map<uint64_t, int> counts;
  for (int s = 0; s < shots; ++s) ++counts[SampleBasisState(rng)];
  return counts;
}

double Statevector::ExpectationDiagonal(
    const std::vector<double>& diagonal) const {
  QDM_CHECK_EQ(diagonal.size(), amplitudes_.size());
  double e = 0.0;
  for (size_t z = 0; z < amplitudes_.size(); ++z) {
    e += std::norm(amplitudes_[z]) * diagonal[z];
  }
  return e;
}

Complex Statevector::InnerProduct(const Statevector& other) const {
  QDM_CHECK_EQ(num_qubits_, other.num_qubits_);
  Complex ip(0, 0);
  for (size_t z = 0; z < amplitudes_.size(); ++z) {
    ip += std::conj(amplitudes_[z]) * other.amplitudes_[z];
  }
  return ip;
}

double Statevector::FidelityWith(const Statevector& other) const {
  return std::norm(InnerProduct(other));
}

double Statevector::NormSquared() const {
  double n = 0.0;
  for (const Complex& a : amplitudes_) n += std::norm(a);
  return n;
}

void Statevector::Normalize() {
  const double n = std::sqrt(NormSquared());
  QDM_CHECK_GT(n, 0.0) << "cannot normalize the zero vector";
  for (Complex& a : amplitudes_) a /= n;
}

std::string Statevector::ToString(double cutoff) const {
  std::string out;
  for (size_t z = 0; z < amplitudes_.size(); ++z) {
    if (std::abs(amplitudes_[z]) <= cutoff) continue;
    std::string bits;
    for (int q = num_qubits_ - 1; q >= 0; --q) {
      bits += ((z >> q) & 1) ? '1' : '0';
    }
    out += StrFormat("|%s>: %+.4f%+.4fi\n", bits.c_str(), amplitudes_[z].real(),
                     amplitudes_[z].imag());
  }
  return out;
}

Statevector RunCircuit(const circuit::Circuit& c) {
  Statevector sv(c.num_qubits());
  sv.ApplyCircuit(c);
  return sv;
}

std::map<uint64_t, int> SampleCircuit(const circuit::Circuit& c, int shots,
                                      Rng* rng) {
  return RunCircuit(c).Sample(shots, rng);
}

}  // namespace sim
}  // namespace qdm
