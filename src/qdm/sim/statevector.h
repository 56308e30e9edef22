#ifndef QDM_SIM_STATEVECTOR_H_
#define QDM_SIM_STATEVECTOR_H_

#include <complex>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "qdm/circuit/circuit.h"
#include "qdm/common/rng.h"
#include "qdm/linalg/matrix.h"
#include "qdm/sim/simd.h"

namespace qdm {
namespace sim {

/// Execution configuration for the Statevector gate kernels. There is one
/// level, process-wide (Statevector::SetDefaultExecutionConfig), because
/// library paths build their state vectors internally (ApplyCircuit, the
/// trajectory simulator, the QAOA/VQE/Grover bridges in algo/).
///
/// Zero-means-default convention (same as anneal::SolverOptions):
///
///   num_threads    0 = ThreadPool::DefaultNumThreads(); 1 = strictly serial.
///   serial_cutoff  0 = Statevector::kDefaultSerialCutoff. States whose
///                  dimension() is below the cutoff run every kernel on the
///                  calling thread, so small states pay no fan-out overhead.
///   simd           kAuto = the best tier the build + CPU support
///                  (simd::DetectedTier); kScalar forces the reference
///                  scalar run primitives. Orthogonal to num_threads.
///
/// Determinism: each kernel splits its index range into contiguous chunks of
/// independent elementwise/pairwise updates — no reductions are reordered —
/// so results are bit-identical at every thread count (the kernel-level
/// extension of the batch layer's `seed + index` guarantee; see
/// docs/batching.md). Every vector lane performs the exact scalar
/// multiply/add sequence (unfused, unreassociated), so amplitudes are
/// bit-identical across {scalar, avx2} x any thread count.
struct ExecutionConfig {
  int num_threads = 0;
  uint64_t serial_cutoff = 0;
  SimdMode simd = SimdMode::kAuto;
};

/// Dense state-vector simulator state over `num_qubits` qubits.
///
/// Convention: qubit q is bit q (least-significant = qubit 0) of the
/// basis-state index, so |q1 q0> = |10> is index 2.
///
/// This is the gate-based "quantum computer" substrate of the toolkit (the
/// paper's surveyed works run on IBM-Q class machines; all circuits in scope
/// fit in <= ~24 qubits, where exact simulation is both feasible and the
/// strongest possible verification of the algorithmic claims).
class Statevector {
 public:
  /// Initializes to |0...0>.
  explicit Statevector(int num_qubits);

  /// Takes ownership of explicit amplitudes (length must be a power of two;
  /// the vector is normalized if `normalize` is set).
  static Statevector FromAmplitudes(std::vector<Complex> amplitudes,
                                    bool normalize = false);

  // -- Kernel execution config ------------------------------------------------

  /// Resolved serial_cutoff when the process-wide config leaves it at 0:
  /// states below 2^16 amplitudes stay serial.
  static constexpr uint64_t kDefaultSerialCutoff = uint64_t{1} << 16;

  /// Process-wide ExecutionConfig, read by every kernel call. Thread-safe;
  /// set it at startup or around a scope, never mid-kernel.
  static void SetDefaultExecutionConfig(const ExecutionConfig& config);
  static ExecutionConfig DefaultExecutionConfig();

  /// The thread count / cutoff / SIMD tier the kernels actually use: the
  /// process-wide knobs with each 0 (kAuto) replaced by its built-in default.
  static int ResolvedNumThreads();
  static uint64_t ResolvedSerialCutoff();
  static simd::Tier ResolvedSimdTier();

  /// Kernel fan-out seam: runs body(begin, end) over [0, n). When the
  /// resolved thread count is 1 or `work` is below the resolved serial
  /// cutoff, that is one direct body(0, n) call on the caller, with no
  /// std::function and no allocation. Otherwise [0, n) is split into
  /// min(threads, n) contiguous chunks dispatched over the process-wide
  /// ThreadPool::Shared() pool (caller-participating, so nested use cannot
  /// deadlock). Chunk boundaries depend only on (n, threads), so a body
  /// whose per-index updates are independent is bit-identical at every
  /// thread count.
  template <typename Body>
  static void ForChunks(uint64_t n, uint64_t work, const Body& body) {
    const int chunks = NumChunks(n, work);
    if (chunks <= 1) {
      body(uint64_t{0}, n);
      return;
    }
    RunChunks(n, chunks, body);
  }

  int num_qubits() const { return num_qubits_; }
  size_t dimension() const { return amplitudes_.size(); }
  const std::vector<Complex>& amplitudes() const { return amplitudes_; }
  std::vector<Complex>& mutable_amplitudes() { return amplitudes_; }
  Complex amplitude(uint64_t basis_state) const {
    return amplitudes_[basis_state];
  }

  // -- Gate application -------------------------------------------------------

  /// Applies an arbitrary 2x2 unitary to qubit `q`.
  void Apply1Q(const linalg::Matrix& u, int q);

  /// Applies `u` to `target` on the subspace where all `controls` are |1>.
  void ApplyControlled1Q(const std::vector<int>& controls, int target,
                         const linalg::Matrix& u);

  /// Exchanges qubits a and b.
  void ApplySwap(int a, int b);

  /// Controlled swap.
  void ApplyControlledSwap(int control, int a, int b);

  /// Multiplies amplitude of basis state z by exp(i * phase(z)). This is the
  /// fast path for diagonal operators (QAOA cost layers, Grover oracles).
  /// When the execution config enables parallel kernels, `phase` is invoked
  /// concurrently from pool workers and must be safe to call concurrently
  /// for distinct z and must not throw (the toolkit is exception-free; see
  /// qdm::ThreadPool) — pure functions satisfy both.
  void ApplyDiagonalPhase(const std::function<double(uint64_t)>& phase);

  /// Same operation from a precomputed diagonal (length must equal
  /// dimension(); checked): multiplies amplitude of basis state z by
  /// exp(i * scale * phases[z]). Hot path for loops that reapply one
  /// diagonal with varying prefactors (QAOA layers, Grover oracle sweeps) —
  /// no per-element std::function indirection.
  void ApplyDiagonalPhase(const std::vector<double>& phases,
                          double scale = 1.0);

  /// Applies one circuit gate / a whole circuit (circuit must be fully bound).
  void ApplyGate(const circuit::Gate& gate);
  void ApplyCircuit(const circuit::Circuit& c);

  // -- Measurement and readout ------------------------------------------------

  /// P(qubit q measures 1).
  double ProbabilityOfOne(int q) const;

  /// Per-basis-state probabilities (|amp|^2).
  std::vector<double> Probabilities() const;

  /// Projective measurement of one qubit; collapses the state. Returns 0/1.
  int MeasureQubit(int q, Rng* rng);

  /// Measures all qubits; collapses to a basis state and returns its index.
  uint64_t MeasureAll(Rng* rng);

  /// Samples a basis state WITHOUT collapsing (repeatable readout).
  uint64_t SampleBasisState(Rng* rng) const;

  /// Draws `shots` samples; returns counts per basis state.
  std::map<uint64_t, int> Sample(int shots, Rng* rng) const;

  // -- Linear-algebra utilities -----------------------------------------------

  /// <z|H|z> expectation of a diagonal operator given its diagonal (length ==
  /// dimension()).
  double ExpectationDiagonal(const std::vector<double>& diagonal) const;

  Complex InnerProduct(const Statevector& other) const;

  /// |<this|other>|^2.
  double FidelityWith(const Statevector& other) const;

  double NormSquared() const;
  void Normalize();

  /// Debug listing of non-negligible amplitudes.
  std::string ToString(double cutoff = 1e-9) const;

 private:
  Statevector() : num_qubits_(0) {}

  /// 1 << q, after checking that q names a qubit of this state.
  uint64_t QubitBit(int q) const;

  /// Applies `u` to `target` on the basis states whose `control_mask` bits
  /// are all set (Apply1Q is the empty mask).
  void ApplyMasked1Q(uint64_t control_mask, int target,
                     const linalg::Matrix& u);

  /// Exchanges qubits a and b on the basis states whose `control_mask` bits
  /// are all set (ApplySwap is the empty mask).
  void SwapMasked(uint64_t control_mask, int a, int b);

  /// ForChunks' chunk count (1 = serial) and its pooled dispatch.
  static int NumChunks(uint64_t n, uint64_t work);
  static void RunChunks(uint64_t n, int chunks,
                        const std::function<void(uint64_t, uint64_t)>& body);

  int num_qubits_;
  std::vector<Complex> amplitudes_;
};

/// Runs `c` on |0...0> and returns the final state.
Statevector RunCircuit(const circuit::Circuit& c);

/// Runs `c` on |0...0> and samples `shots` measurement outcomes.
std::map<uint64_t, int> SampleCircuit(const circuit::Circuit& c, int shots,
                                      Rng* rng);

}  // namespace sim
}  // namespace qdm

#endif  // QDM_SIM_STATEVECTOR_H_
