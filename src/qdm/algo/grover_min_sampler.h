#ifndef QDM_ALGO_GROVER_MIN_SAMPLER_H_
#define QDM_ALGO_GROVER_MIN_SAMPLER_H_

#include <cstdint>
#include <string>

#include "qdm/anneal/qubo.h"
#include "qdm/anneal/solver.h"

namespace qdm {
namespace algo {

/// QUBO minimization via Durr-Hoyer quantum minimum finding (Grover's
/// algorithm as the inner loop), the "grover_min" registry backend. This is
/// the third gate-based arm of the paper's Figure 2 and the approach of
/// Groppe & Groppe [IDEAS'21] for transaction schedule optimization: encode
/// candidate solutions as basis states and Grover-search below a descending
/// cost threshold. Reads max_qubits (see CheckFitsStateVector). With
/// options.noise set, the adaptive search has no single gate-level circuit
/// to inject per-gate errors into, so each read's measured argmin is
/// corrupted classically via CorruptBasisState, and noise_fidelity is the
/// mean survival probability of the reads (docs/noise.md).
class GroverMinSampler : public anneal::QuboSolver {
 public:
  static constexpr int kDefaultMaxQubits = 20;

  Result<anneal::SampleSet> Solve(
      const anneal::Qubo& qubo, const anneal::SolverOptions& options) override;
  std::string name() const override { return "grover_min"; }

  /// Oracle queries consumed by the most recent Solve call.
  int64_t last_oracle_queries() const { return last_oracle_queries_; }

 private:
  int64_t last_oracle_queries_ = 0;
};

}  // namespace algo
}  // namespace qdm

#endif  // QDM_ALGO_GROVER_MIN_SAMPLER_H_
