#ifndef QDM_ANNEAL_EMBEDDING_H_
#define QDM_ANNEAL_EMBEDDING_H_

#include <vector>

#include "qdm/anneal/sampler.h"
#include "qdm/anneal/topology.h"
#include "qdm/common/status.h"

namespace qdm {
namespace anneal {

/// A minor embedding: logical variable i is represented by the chain of
/// physical qubits `chains[i]` (a connected subgraph of the hardware graph).
struct Embedding {
  std::vector<std::vector<int>> chains;

  int num_logical() const { return static_cast<int>(chains.size()); }
  int TotalPhysicalQubits() const;
  int MaxChainLength() const;
};

/// How a broken chain (physical qubits of one logical variable disagreeing)
/// is collapsed back to a logical value when unembedding. Follows the
/// zero-means-default convention of SolverOptions: the zero enumerator
/// kMajorityVote is the default policy everywhere.
enum class ChainBreakPolicy {
  /// Chain value = majority of its physical qubits (ties -> 0).
  kMajorityVote = 0,
  /// Majority vote, then greedily re-assign each broken chain (in ascending
  /// variable order) to whichever value lowers the LOGICAL energy given the
  /// other variables — a deterministic single-pass repair.
  kMinimizeEnergy = 1,
  /// Drop samples containing any broken chain. To preserve the "num_reads
  /// requested, some samples returned" contract, when EVERY sample of a set
  /// is broken the policy falls back to majority vote on all of them rather
  /// than returning an empty set.
  kDiscard = 2,
};

/// Stable lower_snake_case label ("majority_vote", ...) for tables/logs.
const char* ToString(ChainBreakPolicy policy);

/// Deterministic clique (K_n) embedding into `topology`, built from the
/// topology's native CliqueChains construction (Choi's TRIAD on Chimera and
/// on the Chimera subgraphs of Pegasus/Zephyr). Supports any logical
/// interaction graph because every pair of chains is adjacent.
/// ResourceExhausted when num_logical exceeds topology.CliqueCapacity().
Result<Embedding> CliqueEmbedding(int num_logical,
                                  const HardwareTopology& topology);

/// Result of pushing a logical QUBO through an embedding: a physical QUBO
/// whose quadratic terms all lie on hardware couplers. `chain_strength` is
/// the RESOLVED ferromagnetic coupling actually applied (never 0).
struct EmbeddedQubo {
  Qubo physical;
  Embedding embedding;
  double chain_strength = 0.0;
};

/// Maps `logical` onto hardware. Logical linear biases are spread uniformly
/// over the chain; each logical coupling is placed on one hardware coupler
/// connecting the two chains; chain integrity is enforced by a ferromagnetic
/// coupling of weight `chain_strength` on every intra-chain edge (in Ising
/// space; the returned model is the equivalent QUBO).
///
/// chain_strength follows the zero-means-default convention of solver.h:
/// 0.0 auto-scales to twice the largest |coefficient| of the logical model
/// in Ising space (falling back to 1.0 for an all-zero model) — strong
/// enough that no single logical term can profitably tear a chain, weak
/// enough not to freeze the annealing landscape. A negative value is
/// InvalidArgument (never an abort). Fails with FailedPrecondition if some
/// logical coupling has no hardware edge between its chains.
Result<EmbeddedQubo> EmbedQubo(const Qubo& logical, const Embedding& embedding,
                               const HardwareTopology& topology,
                               double chain_strength);

/// Collapses a physical sample back to logical variables, resolving broken
/// chains per `policy` (kDiscard is a sample-set-level policy and behaves
/// like kMajorityVote here; use UnembedAll for it). The fraction of broken
/// (non-unanimous) chains is reported in Sample::chain_break_fraction —
/// computed BEFORE any repair, so it measures the physical sample, not the
/// patched one. The returned energy is the LOGICAL energy of the unembedded
/// assignment.
Sample Unembed(const Qubo& logical, const EmbeddedQubo& embedded,
               const Sample& physical_sample,
               ChainBreakPolicy policy = ChainBreakPolicy::kMajorityVote);

/// Unembeds every sample of a physical SampleSet, applying `policy`
/// (including kDiscard's drop-broken-samples semantics and its documented
/// all-broken fallback).
SampleSet UnembedAll(const Qubo& logical, const EmbeddedQubo& embedded,
                     const SampleSet& physical,
                     ChainBreakPolicy policy = ChainBreakPolicy::kMajorityVote);

}  // namespace anneal
}  // namespace qdm

#endif  // QDM_ANNEAL_EMBEDDING_H_
