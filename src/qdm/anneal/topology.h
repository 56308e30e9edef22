#ifndef QDM_ANNEAL_TOPOLOGY_H_
#define QDM_ANNEAL_TOPOLOGY_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "qdm/common/status.h"

namespace qdm {
namespace anneal {

/// Abstract annealer hardware graph — the "physical level" of the paper's
/// Sec III-B mapping (logical QUBO -> minor embedding -> hardware graph).
/// Implementations model the working graphs of real quantum annealers:
/// ChimeraGraph (D-Wave 2X), PegasusGraph (Advantage), ZephyrGraph
/// (Advantage2). The embedding layer (CliqueEmbedding / EmbedQubo /
/// UnembedAll) and the registry-level "embedded:<base>:<topology>"
/// backends are written against this interface only, so a topology sweep is
/// a loop over spec strings, never a code change.
///
/// Qubits are dense linear ids in [0, num_qubits()). Every implementation
/// must keep HasEdge symmetric, irreflexive, and in exact agreement with
/// Edges() (each coupler listed once as (a, b) with a < b).
class HardwareTopology {
 public:
  virtual ~HardwareTopology() = default;

  /// Canonical spec string that MakeTopology would parse back into an
  /// identical topology ("chimera:4x4x4", "pegasus:6", "zephyr:4x4").
  virtual std::string name() const = 0;

  /// Topology family ("chimera", "pegasus", "zephyr") — the first token of
  /// the spec string; used for report tables and metric prefixes.
  virtual std::string family() const = 0;

  virtual int num_qubits() const = 0;

  /// True if physical qubits a and b share a hardware coupler.
  virtual bool HasEdge(int a, int b) const = 0;

  /// All hardware couplers as (a, b) pairs with a < b, each listed once.
  virtual std::vector<std::pair<int, int>> Edges() const = 0;

  /// Largest n for which CliqueChains(n) succeeds on this topology.
  virtual int CliqueCapacity() const = 0;

  /// Deterministic clique (K_n) embedding: chains[i] is the connected set of
  /// physical qubits representing logical variable i; chains are pairwise
  /// disjoint and every pair of chains is joined by at least one hardware
  /// coupler. ResourceExhausted when num_logical > CliqueCapacity().
  virtual Result<std::vector<std::vector<int>>> CliqueChains(
      int num_logical) const = 0;
};

/// Parses a topology spec string into a topology instance. Grammar:
///
///   "chimera:<rows>x<cols>x<shore>"   e.g. "chimera:4x4x4"
///   "pegasus:<m>"                     e.g. "pegasus:6"     (m >= 2)
///   "zephyr:<m>" | "zephyr:<m>x<t>"   e.g. "zephyr:4"      (t defaults to 4)
///
/// All dimensions are positive integers. Malformed specs (unknown family,
/// missing/extra fields, non-numeric or non-positive dimensions) return
/// InvalidArgument naming the offending spec — never an abort. Specs
/// describing more than 2^24 qubits are likewise rejected with
/// InvalidArgument (the dense-id space is int-indexed).
Result<std::unique_ptr<HardwareTopology>> MakeTopology(const std::string& spec);

/// Shared skeleton of the per-topology clique constructions: Choi's TRIAD
/// clique embedding expressed against an abstract Chimera frame
/// C(frame_size, frame_size, shore). `vertical(r, c, k)` / `horizontal(r, c,
/// k)` map frame coordinates to physical qubit ids; Chimera uses its own
/// qubits directly, Pegasus/Zephyr map a Chimera subgraph of theirs (see
/// pegasus.h / zephyr.h). Variable i = shore*block + offset occupies the
/// vertical run (rows [0, used), column `block`, shore `offset`) plus the
/// horizontal run (row `block`, columns [0, used)), where
/// used = ceil(num_logical / shore); the runs meet — and every pair of
/// chains crosses — inside the used square. Callers must pre-check
/// num_logical <= shore * frame_size.
std::vector<std::vector<int>> TriadCliqueChains(
    int num_logical, int shore,
    const std::function<int(int r, int c, int k)>& vertical,
    const std::function<int(int r, int c, int k)>& horizontal);

}  // namespace anneal
}  // namespace qdm

#endif  // QDM_ANNEAL_TOPOLOGY_H_
