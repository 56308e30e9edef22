#ifndef QDM_DB_JOIN_GRAPH_H_
#define QDM_DB_JOIN_GRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "qdm/common/rng.h"

namespace qdm {
namespace db {

/// A relation participating in a join query.
struct RelationInfo {
  std::string name;
  double cardinality = 1.0;
};

/// A join predicate between two relations with its estimated selectivity.
/// `left_column` / `right_column` optionally bind the edge to physical
/// columns so the executor can run the plan.
struct JoinEdge {
  int a = 0;
  int b = 0;
  double selectivity = 1.0;
  std::string left_column;
  std::string right_column;
};

/// The join-ordering search problem: relations + join predicates. Mirrors
/// the standard formulation in Steinbrunn et al. [VLDBJ'97], which is also
/// what the quantum join-ordering papers [23-26] optimize over.
class JoinGraph {
 public:
  JoinGraph() = default;

  /// Adds a relation; returns its id.
  int AddRelation(std::string name, double cardinality);

  /// Adds a join predicate (a != b; at most one edge per pair).
  void AddEdge(int a, int b, double selectivity, std::string left_column = "",
               std::string right_column = "");

  int num_relations() const { return static_cast<int>(relations_.size()); }
  const std::vector<RelationInfo>& relations() const { return relations_; }
  const std::vector<JoinEdge>& edges() const { return edges_; }

  /// Combined selectivity of all predicates between a and b (1.0 if none).
  double Selectivity(int a, int b) const;

  /// Estimated cardinality of joining exactly the relations in `mask`
  /// (bit i = relation i): product of base cardinalities times the
  /// selectivities of all edges internal to the subset. Cross products
  /// contribute factor 1 (no edge).
  double SubsetCardinality(uint32_t mask) const;

  /// True if the relations in `mask` induce a connected subgraph.
  bool IsConnected(uint32_t mask) const;

  std::string ToString() const;

  // -- Standard benchmark topologies (Steinbrunn et al.) ----------------------
  // Cardinalities ~ uniform [10, 10000]; selectivities chosen so that join
  // results neither vanish nor explode, as in the join-ordering literature.

  static JoinGraph RandomChain(int n, Rng* rng);
  static JoinGraph RandomStar(int n, Rng* rng);
  static JoinGraph RandomCycle(int n, Rng* rng);
  static JoinGraph RandomClique(int n, Rng* rng);

 private:
  std::vector<RelationInfo> relations_;
  std::vector<JoinEdge> edges_;
};

/// Topology selector used by workload sweeps.
enum class QueryShape { kChain, kStar, kCycle, kClique };

const char* QueryShapeToString(QueryShape shape);
JoinGraph MakeRandomQuery(QueryShape shape, int n, Rng* rng);

}  // namespace db
}  // namespace qdm

#endif  // QDM_DB_JOIN_GRAPH_H_
