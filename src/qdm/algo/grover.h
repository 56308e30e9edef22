#ifndef QDM_ALGO_GROVER_H_
#define QDM_ALGO_GROVER_H_

#include <cstdint>
#include <functional>

#include "qdm/circuit/circuit.h"
#include "qdm/common/rng.h"
#include "qdm/sim/statevector.h"

namespace qdm {
namespace algo {

/// A boolean membership oracle f : {0,1}^n -> {0,1} with query accounting.
/// This is the quantity the paper's Sec III-A compares algorithms by: the
/// classical scan pays one query per *record*, Grover pays one query per
/// *coherent oracle application* (which acts on all records in superposition).
class CountingOracle {
 public:
  explicit CountingOracle(std::function<bool(uint64_t)> predicate)
      : predicate_(std::move(predicate)) {}

  /// Classical query: evaluates f on a single record. Costs 1.
  bool Query(uint64_t x) {
    ++queries_;
    return predicate_(x);
  }

  /// Quantum query: applies the phase oracle |x> -> (-1)^f(x) |x> to the full
  /// register. Costs 1 (one coherent application), independent of dimension.
  void ApplyPhaseFlip(sim::Statevector* sv);

  /// Evaluates the predicate WITHOUT charging a query (used by tests and by
  /// result verification).
  bool Peek(uint64_t x) const { return predicate_(x); }

  int64_t query_count() const { return queries_; }
  void ResetCount() { queries_ = 0; }

 private:
  std::function<bool(uint64_t)> predicate_;
  int64_t queries_ = 0;
};

/// floor(pi/4 * sqrt(N/M)), the optimal Grover iteration count for N states
/// with M marked.
int OptimalGroverIterations(uint64_t num_states, uint64_t num_marked);

/// Grover's diffusion operator 2|s><s| - I (inversion about the mean).
void ApplyDiffusion(sim::Statevector* sv);

struct GroverResult {
  uint64_t measured = 0;
  bool found = false;          // Verified classically post-measurement.
  int64_t oracle_queries = 0;  // Coherent oracle applications used.
  int iterations = 0;
  /// Probability mass on marked states just before measurement.
  double success_probability = 0.0;
};

/// Textbook Grover search with known marked-state count `num_marked`.
/// Simulated exactly on the state vector; measurement uses `rng`.
GroverResult GroverSearch(int num_qubits, CountingOracle* oracle,
                          uint64_t num_marked, Rng* rng);

/// Boyer-Brassard-Hoyer-Tapp search for UNKNOWN number of marked states:
/// exponentially growing random iteration counts until a verified hit.
/// Expected O(sqrt(N/M)) oracle queries; reports failure after exhausting
/// the cutoff when no state is marked.
GroverResult BbhtSearch(int num_qubits, CountingOracle* oracle, Rng* rng);

struct ClassicalSearchResult {
  uint64_t found_index = 0;
  bool found = false;
  int64_t queries = 0;
};

/// Classical baseline: scans records in random order until the predicate
/// fires (expected (N+1)/(M+1) queries).
ClassicalSearchResult ClassicalLinearSearch(uint64_t num_states,
                                            CountingOracle* oracle, Rng* rng);

/// Gate-level Grover circuit for a single marked basis state, built from
/// H/X/CCX via the multi-controlled-Z decomposition. Data register is qubits
/// [0, num_qubits); ancillas (if any) occupy the remaining qubits of the
/// returned circuit. Used to validate the fast state-vector path against a
/// real gate decomposition.
circuit::Circuit GroverCircuit(int num_qubits, uint64_t marked, int iterations);

/// Durr-Hoyer quantum minimum finding over f : [0, 2^n) -> double.
/// Repeatedly BBHT-searches for "f(x) < f(threshold)". Expected
/// O(sqrt(N)) oracle queries to locate the global argmin.
struct MinimumResult {
  uint64_t argmin = 0;
  double minimum = 0.0;
  int64_t oracle_queries = 0;
};

MinimumResult DurrHoyerMinimum(int num_qubits,
                               const std::function<double(uint64_t)>& f,
                               Rng* rng);

}  // namespace algo
}  // namespace qdm

#endif  // QDM_ALGO_GROVER_H_
