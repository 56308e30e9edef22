#include "qdm/db/join_graph.h"

#include <cmath>

#include "qdm/common/check.h"
#include "qdm/common/strings.h"

namespace qdm {
namespace db {

int JoinGraph::AddRelation(std::string name, double cardinality) {
  QDM_CHECK_GT(cardinality, 0.0);
  relations_.push_back(RelationInfo{std::move(name), cardinality});
  return static_cast<int>(relations_.size()) - 1;
}

void JoinGraph::AddEdge(int a, int b, double selectivity,
                        std::string left_column, std::string right_column) {
  QDM_CHECK(a >= 0 && a < num_relations());
  QDM_CHECK(b >= 0 && b < num_relations());
  QDM_CHECK_NE(a, b);
  QDM_CHECK(selectivity > 0.0 && selectivity <= 1.0);
  for (const JoinEdge& e : edges_) {
    QDM_CHECK(!((e.a == a && e.b == b) || (e.a == b && e.b == a)))
        << "duplicate edge " << a << "-" << b;
  }
  edges_.push_back(JoinEdge{a, b, selectivity, std::move(left_column),
                            std::move(right_column)});
}

double JoinGraph::Selectivity(int a, int b) const {
  for (const JoinEdge& e : edges_) {
    if ((e.a == a && e.b == b) || (e.a == b && e.b == a)) return e.selectivity;
  }
  return 1.0;
}

double JoinGraph::SubsetCardinality(uint32_t mask) const {
  double card = 1.0;
  for (int i = 0; i < num_relations(); ++i) {
    if (mask & (uint32_t{1} << i)) card *= relations_[i].cardinality;
  }
  for (const JoinEdge& e : edges_) {
    const uint32_t pair = (uint32_t{1} << e.a) | (uint32_t{1} << e.b);
    if ((mask & pair) == pair) card *= e.selectivity;
  }
  return card;
}

bool JoinGraph::IsConnected(uint32_t mask) const {
  if (mask == 0) return false;
  const int start = __builtin_ctz(mask);
  uint32_t visited = uint32_t{1} << start;
  bool grew = true;
  while (grew) {
    grew = false;
    for (const JoinEdge& e : edges_) {
      const uint32_t ba = uint32_t{1} << e.a;
      const uint32_t bb = uint32_t{1} << e.b;
      if ((mask & ba) && (mask & bb)) {
        if ((visited & ba) && !(visited & bb)) {
          visited |= bb;
          grew = true;
        } else if ((visited & bb) && !(visited & ba)) {
          visited |= ba;
          grew = true;
        }
      }
    }
  }
  return visited == mask;
}

std::string JoinGraph::ToString() const {
  std::string out = StrFormat("JoinGraph(%d relations)\n", num_relations());
  for (int i = 0; i < num_relations(); ++i) {
    out += StrFormat("  %s |R|=%.0f\n", relations_[i].name.c_str(),
                     relations_[i].cardinality);
  }
  for (const JoinEdge& e : edges_) {
    out += StrFormat("  %s -- %s sel=%.4g\n", relations_[e.a].name.c_str(),
                     relations_[e.b].name.c_str(), e.selectivity);
  }
  return out;
}

namespace {

double RandomCardinality(Rng* rng) {
  // Log-uniform in [10, 10000].
  return std::floor(std::pow(10.0, rng->Uniform(1.0, 4.0)));
}

/// Selectivity ~ 1/max(card_a, card_b) scaled by a random factor, the
/// standard "key-foreign key-ish" regime from the JO literature.
double RandomSelectivity(const JoinGraph& g, int a, int b, Rng* rng) {
  const double larger =
      std::max(g.relations()[a].cardinality, g.relations()[b].cardinality);
  const double sel = rng->Uniform(0.5, 2.0) / larger;
  return std::min(1.0, std::max(1e-7, sel));
}

JoinGraph WithRelations(int n, Rng* rng) {
  JoinGraph g;
  for (int i = 0; i < n; ++i) {
    g.AddRelation(StrFormat("R%d", i), RandomCardinality(rng));
  }
  return g;
}

}  // namespace

JoinGraph JoinGraph::RandomChain(int n, Rng* rng) {
  QDM_CHECK_GE(n, 2);
  JoinGraph g = WithRelations(n, rng);
  for (int i = 0; i + 1 < n; ++i) {
    g.AddEdge(i, i + 1, RandomSelectivity(g, i, i + 1, rng));
  }
  return g;
}

JoinGraph JoinGraph::RandomStar(int n, Rng* rng) {
  QDM_CHECK_GE(n, 2);
  JoinGraph g = WithRelations(n, rng);
  for (int i = 1; i < n; ++i) {
    g.AddEdge(0, i, RandomSelectivity(g, 0, i, rng));
  }
  return g;
}

JoinGraph JoinGraph::RandomCycle(int n, Rng* rng) {
  QDM_CHECK_GE(n, 3);
  JoinGraph g = WithRelations(n, rng);
  for (int i = 0; i < n; ++i) {
    g.AddEdge(i, (i + 1) % n, RandomSelectivity(g, i, (i + 1) % n, rng));
  }
  return g;
}

JoinGraph JoinGraph::RandomClique(int n, Rng* rng) {
  QDM_CHECK_GE(n, 2);
  JoinGraph g = WithRelations(n, rng);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      g.AddEdge(i, j, RandomSelectivity(g, i, j, rng));
    }
  }
  return g;
}

const char* QueryShapeToString(QueryShape shape) {
  switch (shape) {
    case QueryShape::kChain:
      return "chain";
    case QueryShape::kStar:
      return "star";
    case QueryShape::kCycle:
      return "cycle";
    case QueryShape::kClique:
      return "clique";
  }
  return "?";
}

JoinGraph MakeRandomQuery(QueryShape shape, int n, Rng* rng) {
  switch (shape) {
    case QueryShape::kChain:
      return JoinGraph::RandomChain(n, rng);
    case QueryShape::kStar:
      return JoinGraph::RandomStar(n, rng);
    case QueryShape::kCycle:
      return JoinGraph::RandomCycle(n, rng);
    case QueryShape::kClique:
      return JoinGraph::RandomClique(n, rng);
  }
  QDM_CHECK(false);
  return JoinGraph();
}

}  // namespace db
}  // namespace qdm
