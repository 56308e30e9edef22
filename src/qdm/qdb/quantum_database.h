#ifndef QDM_QDB_QUANTUM_DATABASE_H_
#define QDM_QDB_QUANTUM_DATABASE_H_

#include <cstdint>
#include <functional>
#include <set>
#include <vector>

#include "qdm/algo/grover.h"
#include "qdm/common/rng.h"
#include "qdm/common/status.h"

namespace qdm {
namespace qdb {

/// Outcome of a database search, with the oracle-query accounting that
/// Sec III-A uses to compare classical and quantum algorithms.
struct SearchStats {
  bool found = false;
  uint64_t index = 0;
  int64_t record = 0;
  int64_t oracle_queries = 0;
};

/// The "database" of the paper's Sec III-A: N = 2^n records addressed by
/// n-bit labels, searched by compiling a predicate into a phase oracle
/// f : {0,1}^n -> {0,1} and running Grover / BBHT on the simulated
/// gate-based machine. Classical baselines scan the same oracle.
class QuantumDatabase {
 public:
  /// `records` must have power-of-two length (pad explicitly if needed —
  /// the label space is the qubit register).
  static Result<QuantumDatabase> Create(std::vector<int64_t> records);

  int num_qubits() const { return num_qubits_; }
  size_t size() const { return records_.size(); }
  const std::vector<int64_t>& records() const { return records_; }

  /// How many records satisfy `predicate` (exact scan; free of charge — used
  /// to pick the optimal Grover iteration count, as when selectivity
  /// statistics are known).
  uint64_t CountWhere(const std::function<bool(int64_t)>& predicate) const;

  /// Grover search for a record with value == key, using catalog knowledge
  /// of the match count. Fails (found=false) when the key is absent.
  SearchStats GroverSearchEqual(int64_t key, Rng* rng) const;

  /// Grover/BBHT search with an arbitrary predicate and UNKNOWN match count.
  SearchStats GroverSearchWhere(const std::function<bool(int64_t)>& predicate,
                                Rng* rng) const;

  /// Classical baseline: random-order scan of the same oracle.
  SearchStats ClassicalSearchWhere(
      const std::function<bool(int64_t)>& predicate, Rng* rng) const;

 private:
  explicit QuantumDatabase(std::vector<int64_t> records);

  std::vector<int64_t> records_;
  int num_qubits_ = 0;
};

// ---------------------------------------------------------------------------
// Quantum set operations (Sec III-A refs [47, 48, 50]): sets given as
// membership oracles over an n-bit universe; Grover finds witnesses.

struct SetOpStats {
  bool found = false;
  uint64_t witness = 0;
  int64_t quantum_queries = 0;    // Combined-oracle applications.
  int64_t classical_queries = 0;  // Scan of the same combined oracle.
};

using MembershipOracle = std::function<bool(uint64_t)>;

/// Finds an element of A intersect B (oracle AND).
SetOpStats QuantumIntersectionSearch(const MembershipOracle& in_a,
                                     const MembershipOracle& in_b,
                                     int universe_qubits, Rng* rng);

/// Finds an element of A union B (oracle OR).
SetOpStats QuantumUnionSearch(const MembershipOracle& in_a,
                              const MembershipOracle& in_b, int universe_qubits,
                              Rng* rng);

/// Finds an element of A minus B (oracle AND NOT).
SetOpStats QuantumDifferenceSearch(const MembershipOracle& in_a,
                                   const MembershipOracle& in_b,
                                   int universe_qubits, Rng* rng);

// ---------------------------------------------------------------------------
// Quantum join (Sec III-A refs [45, 49]): find matching pairs of two keyed
// relations by searching the combined (r+s)-qubit index space.

struct JoinPairStats {
  bool found = false;
  uint64_t left_index = 0;
  uint64_t right_index = 0;
  int64_t oracle_queries = 0;
};

/// One matching pair (left[i] == right[j]) via BBHT over the product space.
JoinPairStats QuantumJoinSearch(const std::vector<int64_t>& left,
                                const std::vector<int64_t>& right, Rng* rng);

/// All matching pairs via repeated BBHT with an exclusion set; also reports
/// total oracle queries. (Expected O(sqrt(N M)) for M matches in an N-sized
/// product space.)
struct JoinAllStats {
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  int64_t oracle_queries = 0;
};
JoinAllStats QuantumJoinAll(const std::vector<int64_t>& left,
                            const std::vector<int64_t>& right, Rng* rng);

// ---------------------------------------------------------------------------
// Superposition-encoded relation with manipulation operations
// (Sec III-A refs [46, 49, 51]): the relation's current extent is encoded as
// the uniform superposition over member labels; INSERT/DELETE/UPDATE rebuild
// the state; reads are quantum measurements of it.

class SuperpositionRelation {
 public:
  explicit SuperpositionRelation(int num_qubits);

  int num_qubits() const { return num_qubits_; }
  size_t cardinality() const { return members_.size(); }
  const std::set<uint64_t>& members() const { return members_; }

  Status Insert(uint64_t label);
  Status Delete(uint64_t label);
  /// Update = delete old + insert new (atomic: both checked first).
  Status Update(uint64_t old_label, uint64_t new_label);

  /// The quantum encoding: (1/sqrt(|T|)) sum_{t in T} |t>.
  sim::Statevector PrepareState() const;

  /// Reads one record by measuring a fresh encoding (uniform over members).
  Result<uint64_t> SampleMember(Rng* rng) const;

 private:
  int num_qubits_;
  std::set<uint64_t> members_;
};

}  // namespace qdb
}  // namespace qdm

#endif  // QDM_QDB_QUANTUM_DATABASE_H_
