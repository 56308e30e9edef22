// HardwareTopology invariants for the Pegasus/Zephyr implementations, the
// spec-string factory (round trips + malformed-spec errors), and the
// per-topology clique-embedding constructions.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "qdm/anneal/chimera.h"
#include "qdm/anneal/pegasus.h"
#include "qdm/anneal/topology.h"
#include "qdm/anneal/zephyr.h"

namespace qdm {
namespace anneal {
namespace {

/// Degree of every qubit, computed from Edges().
std::vector<int> Degrees(const HardwareTopology& g) {
  std::vector<int> degree(g.num_qubits(), 0);
  for (const auto& [a, b] : g.Edges()) {
    ++degree[a];
    ++degree[b];
  }
  return degree;
}

/// Asserts the HardwareTopology graph contract: Edges() lists each coupler
/// once as (a, b) with a < b, agrees exactly with HasEdge over all pairs,
/// and HasEdge is symmetric and irreflexive.
void ExpectGraphContract(const HardwareTopology& g) {
  const auto edges = g.Edges();
  std::set<std::pair<int, int>> edge_set(edges.begin(), edges.end());
  EXPECT_EQ(edges.size(), edge_set.size()) << g.name() << ": duplicate edges";
  for (const auto& [a, b] : edge_set) {
    EXPECT_LT(a, b) << g.name();
    EXPECT_GE(a, 0) << g.name();
    EXPECT_LT(b, g.num_qubits()) << g.name();
  }
  size_t count = 0;
  for (int a = 0; a < g.num_qubits(); ++a) {
    EXPECT_FALSE(g.HasEdge(a, a)) << g.name();
    for (int b = a + 1; b < g.num_qubits(); ++b) {
      EXPECT_EQ(g.HasEdge(a, b), g.HasEdge(b, a))
          << g.name() << ": asymmetric " << a << "-" << b;
      if (g.HasEdge(a, b)) {
        ++count;
        EXPECT_TRUE(edge_set.count({a, b}))
            << g.name() << ": missing " << a << "-" << b;
      }
    }
  }
  EXPECT_EQ(edges.size(), count) << g.name();
}

/// Asserts the CliqueChains contract for K_n: disjoint, connected chains
/// with every pair of chains joined by a coupler.
void ExpectValidCliqueChains(const HardwareTopology& g, int n) {
  auto result = g.CliqueChains(n);
  ASSERT_TRUE(result.ok()) << g.name() << ": " << result.status();
  const auto& chains = *result;
  ASSERT_EQ(static_cast<int>(chains.size()), n) << g.name();

  std::set<int> used;
  for (const auto& chain : chains) {
    ASSERT_FALSE(chain.empty()) << g.name();
    for (int q : chain) {
      EXPECT_GE(q, 0) << g.name();
      EXPECT_LT(q, g.num_qubits()) << g.name();
      EXPECT_TRUE(used.insert(q).second)
          << g.name() << ": qubit " << q << " reused";
    }
    // Connectivity: BFS within the chain.
    std::set<int> visited{chain[0]};
    std::vector<int> frontier{chain[0]};
    while (!frontier.empty()) {
      int cur = frontier.back();
      frontier.pop_back();
      for (int q : chain) {
        if (!visited.count(q) && g.HasEdge(cur, q)) {
          visited.insert(q);
          frontier.push_back(q);
        }
      }
    }
    EXPECT_EQ(visited.size(), chain.size())
        << g.name() << ": chain not connected";
  }
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      bool coupled = false;
      for (int a : chains[i]) {
        for (int b : chains[j]) coupled |= g.HasEdge(a, b);
      }
      EXPECT_TRUE(coupled) << g.name() << ": chains " << i << "," << j
                           << " not adjacent";
    }
  }
}

TEST(PegasusTest, QubitCountAndUniqueIds) {
  for (int m : {2, 3, 4}) {
    PegasusGraph g(m);
    EXPECT_EQ(g.num_qubits(), 24 * m * (m - 1));
    std::set<int> ids;
    for (int u = 0; u < 2; ++u) {
      for (int w = 0; w < m; ++w) {
        for (int k = 0; k < 12; ++k) {
          for (int z = 0; z < m - 1; ++z) ids.insert(g.Qubit(u, w, k, z));
        }
      }
    }
    EXPECT_EQ(static_cast<int>(ids.size()), g.num_qubits()) << "m=" << m;
    EXPECT_EQ(*ids.begin(), 0) << "m=" << m;
    EXPECT_EQ(*ids.rbegin(), g.num_qubits() - 1) << "m=" << m;
  }
}

TEST(PegasusTest, GraphContractHolds) {
  ExpectGraphContract(PegasusGraph(2));
  ExpectGraphContract(PegasusGraph(3));
}

TEST(PegasusTest, DegreeBoundIs15AndIsAttained) {
  // 12 internal + 2 external + 1 odd couplers; interior qubits of P(4) reach
  // the bound, no qubit exceeds it.
  std::vector<int> degree = Degrees(PegasusGraph(4));
  EXPECT_EQ(*std::max_element(degree.begin(), degree.end()), 15);
  for (int m : {2, 3}) {
    std::vector<int> d = Degrees(PegasusGraph(m));
    EXPECT_LE(*std::max_element(d.begin(), d.end()), 15) << "m=" << m;
  }
}

TEST(ZephyrTest, QubitCountAndUniqueIds) {
  for (auto [m, t] : std::vector<std::pair<int, int>>{{1, 4}, {2, 4}, {2, 2}}) {
    ZephyrGraph g(m, t);
    EXPECT_EQ(g.num_qubits(), 4 * t * m * (2 * m + 1));
    std::set<int> ids;
    for (int u = 0; u < 2; ++u) {
      for (int w = 0; w <= 2 * m; ++w) {
        for (int k = 0; k < t; ++k) {
          for (int j = 0; j < 2; ++j) {
            for (int z = 0; z < m; ++z) ids.insert(g.Qubit(u, w, k, j, z));
          }
        }
      }
    }
    EXPECT_EQ(static_cast<int>(ids.size()), g.num_qubits());
  }
}

TEST(ZephyrTest, GraphContractHolds) {
  ExpectGraphContract(ZephyrGraph(1, 4));
  ExpectGraphContract(ZephyrGraph(2, 2));
}

TEST(ZephyrTest, DegreeBoundIs4tPlus4AndIsAttained) {
  // 4t internal + 2 external + 2 odd couplers; interior qubits of Z(3, 4)
  // reach the production degree 20, no qubit exceeds it.
  std::vector<int> degree = Degrees(ZephyrGraph(3, 4));
  EXPECT_EQ(*std::max_element(degree.begin(), degree.end()), 20);
  for (auto [m, t] : std::vector<std::pair<int, int>>{{1, 4}, {2, 2}}) {
    std::vector<int> d = Degrees(ZephyrGraph(m, t));
    EXPECT_LE(*std::max_element(d.begin(), d.end()), 4 * t + 4)
        << "m=" << m << " t=" << t;
  }
}

TEST(TopologyFactoryTest, SpecStringsRoundTrip) {
  for (const std::string spec : {"chimera:4x4x4", "chimera:2x3x2", "pegasus:2",
                                 "pegasus:6", "zephyr:4x4", "zephyr:2x2"}) {
    auto topology = MakeTopology(spec);
    ASSERT_TRUE(topology.ok()) << spec << ": " << topology.status();
    EXPECT_EQ((*topology)->name(), spec);
    // The canonical name parses back to an identical topology.
    auto again = MakeTopology((*topology)->name());
    ASSERT_TRUE(again.ok());
    EXPECT_EQ((*again)->name(), (*topology)->name());
    EXPECT_EQ((*again)->num_qubits(), (*topology)->num_qubits());
  }
}

TEST(TopologyFactoryTest, ZephyrShorthandDefaultsToFourTracks) {
  auto topology = MakeTopology("zephyr:4");
  ASSERT_TRUE(topology.ok()) << topology.status();
  EXPECT_EQ((*topology)->name(), "zephyr:4x4");
  EXPECT_EQ((*topology)->family(), "zephyr");
}

TEST(TopologyFactoryTest, FamiliesAndDimensionsAreReported) {
  auto chimera = MakeTopology("chimera:3x2x4");
  ASSERT_TRUE(chimera.ok());
  EXPECT_EQ((*chimera)->family(), "chimera");
  EXPECT_EQ((*chimera)->num_qubits(), 3 * 2 * 8);
  auto pegasus = MakeTopology("pegasus:3");
  ASSERT_TRUE(pegasus.ok());
  EXPECT_EQ((*pegasus)->family(), "pegasus");
  EXPECT_EQ((*pegasus)->num_qubits(), 144);
}

TEST(TopologyFactoryTest, MalformedSpecsAreInvalidArgument) {
  for (const std::string spec :
       {"", "chimera", "chimera:", "chimera:4x4", "chimera:4x4x4x4",
        "chimera:0x4x4", "chimera:4xAx4", "chimera:4x 4x4", "pegasus:",
        "pegasus:1", "pegasus:abc", "pegasus:6x6", "pegasus:+6", "zephyr:0",
        "zephyr:4x0", "zephyr:4x4x4", "banana:3", ":4x4x4", "pegasus:-2"}) {
    auto topology = MakeTopology(spec);
    ASSERT_FALSE(topology.ok()) << spec;
    EXPECT_EQ(topology.status().code(), StatusCode::kInvalidArgument) << spec;
    // The error names the offending spec (empty specs excepted).
    if (!spec.empty()) {
      EXPECT_NE(topology.status().message().find(spec), std::string::npos)
          << topology.status().message();
    }
  }
}

TEST(TopologyFactoryTest, AbsurdlyLargeSpecsAreRejectedNotOverflowed) {
  // Grammatically valid dimensions whose qubit count would overflow int must
  // surface as InvalidArgument, not as UB inside num_qubits().
  for (const std::string spec :
       {"pegasus:20000", "chimera:4096x4096x4096", "zephyr:65536x64",
        // Maximal in-cap dimensions: the guard itself must not overflow.
        "zephyr:1048576x1048576", "chimera:1048576x1048576x1048576",
        "pegasus:1048576"}) {
    auto topology = MakeTopology(spec);
    ASSERT_FALSE(topology.ok()) << spec;
    EXPECT_EQ(topology.status().code(), StatusCode::kInvalidArgument) << spec;
  }
}

TEST(CliqueChainsTest, ValidOnEveryTopologyFamily) {
  ChimeraGraph chimera(3, 3, 4);
  EXPECT_EQ(chimera.CliqueCapacity(), 12);
  ExpectValidCliqueChains(chimera, 12);

  PegasusGraph pegasus(3);
  EXPECT_EQ(pegasus.CliqueCapacity(), 8);
  ExpectValidCliqueChains(pegasus, 8);
  ExpectValidCliqueChains(pegasus, 5);

  ZephyrGraph zephyr(2, 4);
  EXPECT_EQ(zephyr.CliqueCapacity(), 16);
  ExpectValidCliqueChains(zephyr, 16);
  ExpectValidCliqueChains(zephyr, 7);
}

TEST(CliqueChainsTest, OverCapacityIsResourceExhausted) {
  for (const std::string spec : {"chimera:2x2x4", "pegasus:2", "zephyr:1"}) {
    auto topology = MakeTopology(spec);
    ASSERT_TRUE(topology.ok());
    auto chains = (*topology)->CliqueChains((*topology)->CliqueCapacity() + 1);
    ASSERT_FALSE(chains.ok()) << spec;
    EXPECT_EQ(chains.status().code(), StatusCode::kResourceExhausted) << spec;
    // At capacity it must still succeed.
    EXPECT_TRUE((*topology)->CliqueChains((*topology)->CliqueCapacity()).ok())
        << spec;
  }
}

}  // namespace
}  // namespace anneal
}  // namespace qdm
