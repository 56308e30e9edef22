// The registry-visible embedded backends ("embedded:<base>:<topology>"):
// default registrations, dynamic prefix resolution of arbitrary specs,
// error taxonomy, chain-break policies on seeded broken-chain fixtures, and
// bit-identical SolveBatchParallel dispatch across thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "qdm/anneal/chimera.h"
#include "qdm/anneal/embedded_solver.h"
#include "qdm/anneal/embedding.h"
#include "qdm/anneal/solver.h"
#include "qdm/common/rng.h"

namespace qdm {
namespace anneal {
namespace {

/// 4-variable QUBO with the unique ground state x = (1, 1, 0, 0), energy -3.
Qubo KnownGroundStateQubo() {
  Qubo q(4);
  q.AddLinear(0, -2.0);
  q.AddLinear(1, -2.0);
  q.AddLinear(2, 1.0);
  q.AddLinear(3, 1.0);
  q.AddQuadratic(0, 1, 1.0);
  q.AddQuadratic(2, 3, 3.0);
  return q;
}

TEST(EmbeddedSolverTest, DefaultBackendsAreRegisteredForEveryFamily) {
  auto& registry = SolverRegistry::Global();
  for (const std::string name : {
           "embedded:simulated_annealing:chimera:4x4x4",
           "embedded:simulated_annealing:pegasus:6",
           "embedded:simulated_annealing:zephyr:4",
           "embedded:tabu_search:chimera:4x4x4",
           "embedded:parallel_tempering:chimera:4x4x4",
           "embedded:exact:chimera:1x1x4",
       }) {
    EXPECT_TRUE(registry.Contains(name)) << name;
    const auto names = registry.RegisteredNames();
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end()) << name;
  }
}

TEST(EmbeddedSolverTest, ArbitrarySpecsResolveThroughThePrefixFactory) {
  auto& registry = SolverRegistry::Global();
  const std::string name = "embedded:simulated_annealing:chimera:2x2x4";
  // Not eagerly registered...
  const auto names = registry.RegisteredNames();
  EXPECT_EQ(std::find(names.begin(), names.end(), name), names.end());
  // ...but still resolvable, and it reports the name it was created under.
  EXPECT_TRUE(registry.Contains(name));
  auto solver = registry.Create(name);
  ASSERT_TRUE(solver.ok()) << solver.status();
  EXPECT_EQ((*solver)->name(), name);
  auto& embedded = static_cast<EmbeddedSolver&>(**solver);
  EXPECT_EQ(embedded.base_name(), "simulated_annealing");
  EXPECT_EQ(embedded.topology().name(), "chimera:2x2x4");
}

TEST(EmbeddedSolverTest, MalformedNamesAreRejectedWithClearErrors) {
  auto& registry = SolverRegistry::Global();
  // Unknown base solver.
  auto unknown_base = registry.Create("embedded:warp_drive:chimera:2x2x4");
  ASSERT_FALSE(unknown_base.ok());
  EXPECT_EQ(unknown_base.status().code(), StatusCode::kNotFound);
  EXPECT_NE(unknown_base.status().message().find("warp_drive"),
            std::string::npos);
  // Malformed topology spec.
  auto bad_spec = registry.Create("embedded:simulated_annealing:torus:9");
  ASSERT_FALSE(bad_spec.ok());
  EXPECT_EQ(bad_spec.status().code(), StatusCode::kInvalidArgument);
  // Missing pieces.
  for (const std::string name : {"embedded:", "embedded:simulated_annealing",
                                 "embedded:simulated_annealing:"}) {
    auto result = registry.Create(name);
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << name;
  }
  // Nesting is rejected rather than recursing.
  auto nested =
      registry.Create("embedded:embedded:simulated_annealing:chimera:2x2x4");
  ASSERT_FALSE(nested.ok());
  EXPECT_EQ(nested.status().code(), StatusCode::kInvalidArgument);
  // Contains mirrors Create for dynamic names.
  EXPECT_FALSE(registry.Contains("embedded:warp_drive:chimera:2x2x4"));
}

TEST(EmbeddedSolverTest, FindsGroundStateOnEveryTopologyFamily) {
  const Qubo q = KnownGroundStateQubo();
  SolverOptions options;
  options.num_reads = 20;
  options.num_sweeps = 300;
  options.seed = 5;
  for (const std::string name : {
           "embedded:exact:chimera:1x1x4",
           "embedded:simulated_annealing:pegasus:2",
           "embedded:simulated_annealing:zephyr:1",
       }) {
    auto result = SolveWith(name, q, options);
    ASSERT_TRUE(result.ok()) << name << ": " << result.status();
    ASSERT_FALSE(result->empty()) << name;
    EXPECT_NEAR(result->best().energy, -3.0, 1e-9) << name;
    EXPECT_EQ(result->best().assignment, (Assignment{1, 1, 0, 0})) << name;
    // Energies are reported in LOGICAL space.
    for (const Sample& s : result->samples()) {
      EXPECT_NEAR(s.energy, q.Energy(s.assignment), 1e-9) << name;
    }
  }
}

TEST(EmbeddedSolverTest, OversizedProblemIsResourceExhausted) {
  Qubo big(5);
  for (int i = 0; i < 5; ++i) big.AddLinear(i, -1.0);
  // chimera:1x1x4 has clique capacity 4.
  auto result =
      SolveWith("embedded:simulated_annealing:chimera:1x1x4", big, {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(EmbeddedSolverTest, BaseFailureIsAnnotatedWithBaseAndTopology) {
  // 16 logical variables chain into 2*ceil(16/4) = 8 physical qubits each on
  // pegasus:6 — a 128-variable compacted physical problem, beyond the exact
  // solver's 30-variable enumeration limit; the error must say which base
  // failed on which topology.
  Qubo wide(16);
  for (int i = 0; i < 16; ++i) wide.AddLinear(i, -1.0);
  auto result = SolveWith("embedded:exact:pegasus:6", wide, {.num_reads = 1});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("base 'exact' on pegasus:6"),
            std::string::npos)
      << result.status().message();
}

TEST(EmbeddedSolverTest, PhysicalModelIsCompactedToChainQubits) {
  // A 6-variable problem on pegasus:6 occupies 24 chain qubits of the 720
  // on chip; the base backend must only ever see those 24 — pinned by
  // solving through "exact", whose 30-variable limit a non-compacted
  // dispatch (720 variables) would trip.
  Qubo q(6);
  for (int i = 0; i < 6; ++i) q.AddLinear(i, i % 2 == 0 ? -1.0 : 0.5);
  q.AddQuadratic(0, 5, 1.5);
  auto result = SolveWith("embedded:exact:pegasus:6", q, {.num_reads = 3});
  ASSERT_TRUE(result.ok()) << result.status();
  const double optimum = -3.0;  // even vars on, odd off, 0-5 coupling idle.
  EXPECT_NEAR(result->best().energy, optimum, 1e-9);
}

TEST(EmbeddedSolverTest, NegativeChainStrengthIsInvalidArgument) {
  SolverOptions options;
  options.chain_strength = -1.0;
  auto result = SolveWith("embedded:simulated_annealing:chimera:2x2x4",
                          KnownGroundStateQubo(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// -- Chain-break policies ----------------------------------------------------

/// Fixture with a hand-built broken chain: chimera:1x1x4 chains are
/// {i, 4 + i}, so a physical sample can split chain 1 deliberately.
struct BrokenChainFixture {
  static Qubo MakeLogical() {
    Qubo q(3);
    q.AddLinear(0, -1.0);
    q.AddLinear(1, 2.0);
    q.AddLinear(2, 0.5);
    q.AddQuadratic(0, 1, -4.0);
    return q;
  }
  static EmbeddedQubo MakeEmbedded(const Qubo& logical,
                                   const ChimeraGraph& graph) {
    auto embedding = CliqueEmbedding(3, graph);
    QDM_CHECK(embedding.ok());
    auto result = EmbedQubo(logical, *embedding, graph, 1.0);
    QDM_CHECK(result.ok());
    return std::move(result).value();
  }

  Qubo logical = MakeLogical();
  ChimeraGraph graph{1, 1, 4};
  EmbeddedQubo embedded = MakeEmbedded(logical, graph);

  /// Physical sample: chain 0 = {0,4} aligned to 1, chain 1 = {1,5} BROKEN
  /// (qubit 1 -> 1, qubit 5 -> 0), chain 2 = {2,6} aligned to 0.
  Sample BrokenSample() const {
    Sample s;
    s.assignment = Assignment(graph.num_qubits(), 0);
    s.assignment[0] = 1;
    s.assignment[4] = 1;
    s.assignment[1] = 1;
    return s;
  }

  /// Physical sample with every chain aligned: x = (1, 1, 0).
  Sample AlignedSample() const {
    Sample s;
    s.assignment = Assignment(graph.num_qubits(), 0);
    for (int q : {0, 4, 1, 5}) s.assignment[q] = 1;
    return s;
  }
};

TEST(ChainBreakPolicyTest, MajorityVoteTiesResolveToZeroAndReportFraction) {
  BrokenChainFixture f;
  Sample out = Unembed(f.logical, f.embedded, f.BrokenSample(),
                       ChainBreakPolicy::kMajorityVote);
  // Chain 1 split 1-of-2: tie -> 0.
  EXPECT_EQ(out.assignment, (Assignment{1, 0, 0}));
  EXPECT_NEAR(out.chain_break_fraction, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(out.energy, f.logical.Energy(out.assignment), 1e-12);
}

TEST(ChainBreakPolicyTest, MinimizeEnergyRepairsBrokenChainsOnly) {
  BrokenChainFixture f;
  Sample repaired = Unembed(f.logical, f.embedded, f.BrokenSample(),
                            ChainBreakPolicy::kMinimizeEnergy);
  // Flipping x1 to 1 gains -4 (coupling) + 2 (linear) = -2, so the repair
  // takes it; x0/x2 are intact chains and must not be touched.
  EXPECT_EQ(repaired.assignment, (Assignment{1, 1, 0}));
  EXPECT_LT(repaired.energy, f.logical.Energy({1, 0, 0}));
  // The reported fraction measures the physical sample, not the repair.
  EXPECT_NEAR(repaired.chain_break_fraction, 1.0 / 3.0, 1e-12);

  // On an unbroken sample every policy is the identity.
  for (ChainBreakPolicy policy :
       {ChainBreakPolicy::kMajorityVote, ChainBreakPolicy::kMinimizeEnergy,
        ChainBreakPolicy::kDiscard}) {
    Sample aligned = Unembed(f.logical, f.embedded, f.AlignedSample(), policy);
    EXPECT_EQ(aligned.assignment, (Assignment{1, 1, 0}));
    EXPECT_EQ(aligned.chain_break_fraction, 0.0);
  }
}

TEST(ChainBreakPolicyTest, DiscardDropsBrokenSamplesButNeverReturnsEmpty) {
  BrokenChainFixture f;
  SampleSet physical;
  physical.Add(f.BrokenSample());
  physical.Add(f.AlignedSample());
  SampleSet kept =
      UnembedAll(f.logical, f.embedded, physical, ChainBreakPolicy::kDiscard);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept.best().assignment, (Assignment{1, 1, 0}));
  EXPECT_EQ(kept.best().chain_break_fraction, 0.0);

  // All-broken input: documented fallback to majority vote on everything.
  SampleSet all_broken;
  all_broken.Add(f.BrokenSample());
  SampleSet fallback =
      UnembedAll(f.logical, f.embedded, all_broken, ChainBreakPolicy::kDiscard);
  ASSERT_EQ(fallback.size(), 1u);
  EXPECT_EQ(fallback.best().assignment, (Assignment{1, 0, 0}));
  EXPECT_GT(fallback.best().chain_break_fraction, 0.0);
}

TEST(ChainBreakPolicyTest, PoliciesAgreeWhenChainsHold) {
  // With auto (strong) chain strength and a seeded backend, no chain breaks
  // and all three policies return bit-identical SampleSets.
  const Qubo q = KnownGroundStateQubo();
  SolverOptions options;
  options.num_reads = 10;
  options.num_sweeps = 200;
  options.seed = 11;
  std::vector<SampleSet> per_policy;
  for (ChainBreakPolicy policy :
       {ChainBreakPolicy::kMajorityVote, ChainBreakPolicy::kMinimizeEnergy,
        ChainBreakPolicy::kDiscard}) {
    options.chain_break_policy = policy;
    auto result =
        SolveWith("embedded:simulated_annealing:chimera:2x2x4", q, options);
    ASSERT_TRUE(result.ok()) << result.status();
    for (const Sample& s : result->samples()) {
      EXPECT_EQ(s.chain_break_fraction, 0.0) << ToString(policy);
    }
    per_policy.push_back(std::move(result).value());
  }
  for (size_t p = 1; p < per_policy.size(); ++p) {
    ASSERT_EQ(per_policy[p].size(), per_policy[0].size());
    for (size_t s = 0; s < per_policy[0].size(); ++s) {
      EXPECT_EQ(per_policy[p].samples()[s].assignment,
                per_policy[0].samples()[s].assignment);
      EXPECT_EQ(per_policy[p].samples()[s].energy,
                per_policy[0].samples()[s].energy);
    }
  }
}

// -- Batch dispatch ----------------------------------------------------------

TEST(EmbeddedSolverTest, SolveBatchParallelIsBitIdenticalAcrossThreadCounts) {
  std::vector<Qubo> qubos;
  for (int k = 0; k < 6; ++k) {
    Qubo q(3);
    q.AddLinear(0, -1.0 - k);
    q.AddLinear(1, 0.5 * (k % 3));
    q.AddLinear(2, 1.0);
    q.AddQuadratic(0, 1, -0.5);
    q.AddQuadratic(1, 2, 2.0 - k);
    qubos.push_back(q);
  }
  SolverOptions options;
  options.num_reads = 4;
  options.num_sweeps = 60;
  options.seed = 17;
  for (const std::string name : {"embedded:simulated_annealing:pegasus:2",
                                 "embedded:simulated_annealing:zephyr:1"}) {
    auto one = SolveBatchParallel(name, qubos, options, /*num_threads=*/1);
    ASSERT_TRUE(one.ok()) << name << ": " << one.status();
    ASSERT_EQ(one->size(), qubos.size());
    for (int threads : {2, 8}) {
      auto many = SolveBatchParallel(name, qubos, options, threads);
      ASSERT_TRUE(many.ok()) << name << ": " << many.status();
      ASSERT_EQ(many->size(), one->size());
      for (size_t i = 0; i < one->size(); ++i) {
        EXPECT_TRUE(BitIdentical((*many)[i], (*one)[i]))
            << name << " threads=" << threads << " instance " << i;
      }
    }
  }
}

}  // namespace
}  // namespace anneal
}  // namespace qdm
