// The adaptive portfolio selector ("adaptive:<b1>+<b2>+...",
// docs/solvers.md): default registration, dynamic prefix resolution, the
// explore-then-commit schedule (first kExploreInstances lifetime solves
// race every member, the rest run only the win-rate winner), bit-identical
// batch dispatch across thread counts, decision recording and bit-exact
// replay through ReplayAdaptiveDecision, the full malformed-spec error
// taxonomy with exact messages, and composition with the embedded:*,
// noisy:*, and batch machinery.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "qdm/anneal/adaptive_solver.h"
#include "qdm/anneal/portfolio_solver.h"
#include "qdm/anneal/solver.h"
#include "qdm/common/rng.h"
#include "qdm/common/status.h"

namespace qdm {
namespace anneal {
namespace {

const char* kDefaultName = "adaptive:simulated_annealing+tabu_search";

/// A batch of distinct 3-variable instances, long enough that a fresh
/// selector both explores (instances [0, kExploreInstances)) and commits
/// (the rest) inside one batch.
std::vector<Qubo> SmallBatch(int count) {
  std::vector<Qubo> qubos;
  for (int k = 0; k < count; ++k) {
    Qubo q(3);
    q.AddLinear(0, -1.0 - k);
    q.AddLinear(1, 0.5 * (k % 3));
    q.AddLinear(2, 1.0);
    q.AddQuadratic(0, 1, -0.5);
    q.AddQuadratic(1, 2, 2.0 - k);
    qubos.push_back(q);
  }
  return qubos;
}

/// Options cheap enough to run every member family.
SolverOptions FastOptions(uint64_t seed) {
  SolverOptions options;
  options.num_reads = 3;
  options.num_sweeps = 50;
  options.max_iterations = 50;
  options.layers = 1;
  options.restarts = 1;
  options.seed = seed;
  return options;
}

// -- Registration and resolution ---------------------------------------------

TEST(AdaptiveSolverTest, DefaultBackendIsRegistered) {
  auto& registry = SolverRegistry::Global();
  EXPECT_TRUE(registry.Contains(kDefaultName));
  const auto names = registry.RegisteredNames();
  EXPECT_NE(std::find(names.begin(), names.end(), std::string(kDefaultName)),
            names.end());
}

TEST(AdaptiveSolverTest, ArbitrarySpecsResolveThroughThePrefixFactory) {
  auto& registry = SolverRegistry::Global();
  for (const std::string name :
       {"adaptive:exact+tabu_search",
        "adaptive:simulated_annealing+parallel_tempering+tabu_search",
        "adaptive:simulated_annealing+"
        "embedded:simulated_annealing:chimera:4x4x4"}) {
    const auto names = registry.RegisteredNames();
    EXPECT_EQ(std::find(names.begin(), names.end(), name), names.end()) << name;
    EXPECT_TRUE(registry.Contains(name)) << name;
    auto solver = registry.Create(name);
    ASSERT_TRUE(solver.ok()) << name << ": " << solver.status();
    EXPECT_EQ((*solver)->name(), name);
  }
}

// -- Explore/commit schedule --------------------------------------------------

TEST(AdaptiveSolverTest, ScheduleExploresThenCommitsWithAccessorsToMatch) {
  auto created = MakePortfolioSolver(kDefaultName);
  ASSERT_TRUE(created.ok()) << created.status();
  auto* solver = static_cast<PortfolioSolver*>(created->get());
  ASSERT_EQ(solver->members().size(), 2u);
  EXPECT_EQ(solver->committed_member(), -1);

  const std::vector<Qubo> qubos =
      SmallBatch(PortfolioSolver::kExploreInstances + 4);
  const SolverOptions options = FastOptions(11);
  for (size_t i = 0; i < qubos.size(); ++i) {
    auto samples = solver->Solve(qubos[i], DeriveBatchOptions(options, i));
    ASSERT_TRUE(samples.ok()) << "solve " << i << ": " << samples.status();
    if (i < static_cast<size_t>(PortfolioSolver::kExploreInstances)) {
      EXPECT_EQ(samples->decision().rfind("explore:", 0), 0u)
          << "solve " << i << " decision '" << samples->decision() << "'";
    } else {
      // Committed: the decision names the winner, which never changes.
      const int w = solver->committed_member();
      ASSERT_GE(w, 0);
      EXPECT_EQ(samples->decision(),
                "commit:" + std::to_string(w) + ":" + solver->members()[w])
          << "solve " << i;
    }
  }
  // Exactly one explore win per explored instance, none after commit.
  EXPECT_EQ(std::accumulate(solver->wins().begin(), solver->wins().end(), 0),
            PortfolioSolver::kExploreInstances);
}

TEST(AdaptiveSolverTest, BatchIsBitIdenticalAcrossThreadCounts) {
  // Long enough to cross the explore/commit boundary inside the batch.
  const std::vector<Qubo> qubos =
      SmallBatch(PortfolioSolver::kExploreInstances + 8);
  const SolverOptions options = FastOptions(29);
  for (const std::string& name :
       {std::string(kDefaultName),
        std::string("adaptive:exact+simulated_annealing+tabu_search")}) {
    auto one = SolveBatchParallel(name, qubos, options, /*num_threads=*/1);
    ASSERT_TRUE(one.ok()) << name << ": " << one.status();
    ASSERT_EQ(one->size(), qubos.size()) << name;
    for (int threads : {2, 8}) {
      auto many = SolveBatchParallel(name, qubos, options, threads);
      ASSERT_TRUE(many.ok()) << name << ": " << many.status();
      ASSERT_EQ(many->size(), one->size()) << name;
      for (size_t i = 0; i < one->size(); ++i) {
        EXPECT_TRUE(BitIdentical((*one)[i], (*many)[i]))
            << name << " threads=" << threads << " instance " << i;
      }
    }
    // The batch == per-instance solves on ONE fresh instance (the
    // sequential service reference): lifetime solve i is batch instance i.
    auto fresh = SolverRegistry::Global().Create(name);
    ASSERT_TRUE(fresh.ok()) << name << ": " << fresh.status();
    for (size_t i = 0; i < qubos.size(); ++i) {
      auto single = (*fresh)->Solve(qubos[i], DeriveBatchOptions(options, i));
      ASSERT_TRUE(single.ok()) << name << ": " << single.status();
      EXPECT_TRUE(BitIdentical((*one)[i], *single))
          << name << " instance " << i
          << " vs sequential per-instance reference";
    }
  }
}

TEST(AdaptiveSolverTest, CommitPhaseRunsOnlyTheWinner) {
  // After the explore window, batches keep committing to the same member
  // and keep producing results bit-identical to that bare member run at
  // the adaptive seed rule (instance seed + winner index).
  auto created = SolverRegistry::Global().Create(kDefaultName);
  ASSERT_TRUE(created.ok()) << created.status();
  auto* solver = static_cast<PortfolioSolver*>(created->get());
  const SolverOptions options = FastOptions(43);
  const std::vector<Qubo> warmup =
      SmallBatch(PortfolioSolver::kExploreInstances);
  auto explored = solver->SolveBatch(warmup, options, 4);
  ASSERT_TRUE(explored.ok()) << explored.status();
  const int w = solver->committed_member();
  ASSERT_GE(w, 0);

  const Qubo qubo = SmallBatch(1)[0];
  auto committed = solver->Solve(qubo, options);
  ASSERT_TRUE(committed.ok()) << committed.status();
  auto bare =
      SolveWith(solver->members()[w], qubo, DeriveBatchOptions(options, w));
  ASSERT_TRUE(bare.ok()) << bare.status();
  ASSERT_EQ(committed->size(), bare->size());
  for (size_t s = 0; s < bare->size(); ++s) {
    EXPECT_EQ(committed->samples()[s].assignment,
              bare->samples()[s].assignment);
    EXPECT_EQ(committed->samples()[s].energy, bare->samples()[s].energy);
  }
}

// -- Replay -------------------------------------------------------------------

TEST(AdaptiveSolverTest, RecordedDecisionsReplayBitIdentically) {
  const std::vector<Qubo> qubos =
      SmallBatch(PortfolioSolver::kExploreInstances + 4);
  const SolverOptions options = FastOptions(61);
  auto batch = SolveBatchParallel(kDefaultName, qubos, options, 8);
  ASSERT_TRUE(batch.ok()) << batch.status();
  for (size_t i = 0; i < qubos.size(); ++i) {
    const std::string& decision = (*batch)[i].decision();
    ASSERT_FALSE(decision.empty()) << "instance " << i;
    // The one replay rule: the recorded member, at the instance options,
    // with the arm's derived seed — both phases.
    auto replayed = ReplayAdaptiveDecision(decision, qubos[i],
                                           DeriveBatchOptions(options, i));
    ASSERT_TRUE(replayed.ok()) << decision << ": " << replayed.status();
    EXPECT_TRUE(BitIdentical((*batch)[i], *replayed))
        << "replay of instance " << i << " ('" << decision << "')";
  }
}

TEST(AdaptiveSolverTest, MalformedDecisionsAreRejectedOnReplay) {
  const Qubo qubo = SmallBatch(1)[0];
  const SolverOptions options = FastOptions(1);
  for (const std::string decision :
       {"", "explore", "explore:0", "explore:0:", "warmup:0:tabu_search",
        "explore:x:tabu_search", "explore::tabu_search"}) {
    auto result = ReplayAdaptiveDecision(decision, qubo, options);
    ASSERT_FALSE(result.ok()) << "'" << decision << "'";
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << "'" << decision << "'";
    EXPECT_EQ(result.status().message(),
              "adaptive decision '" + decision +
                  "' must have the form '<phase>:<arm>:<member>' with phase "
                  "'explore' or 'commit' and a non-negative arm index")
        << "'" << decision << "'";
  }
  // An unknown member propagates the registry's own diagnosis.
  auto unknown = ReplayAdaptiveDecision("commit:0:warp_drive", qubo, options);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
}

// -- Error taxonomy
// ------------------------------------------------------------

void ExpectCreateFails(const std::string& name, StatusCode code,
                       const std::string& needle) {
  auto result = SolverRegistry::Global().Create(name);
  ASSERT_FALSE(result.ok()) << name;
  EXPECT_EQ(result.status().code(), code) << name;
  EXPECT_NE(result.status().message().find(needle), std::string::npos)
      << name << ": '" << result.status().message() << "' lacks '" << needle
      << "'";
  // Contains mirrors Create for dynamic names.
  EXPECT_FALSE(SolverRegistry::Global().Contains(name)) << name;
}

TEST(AdaptiveSolverTest, SingleMemberSpecsAreRejected) {
  for (const std::string name : {"adaptive:", "adaptive:simulated_annealing"}) {
    ExpectCreateFails(
        name, StatusCode::kInvalidArgument,
        "needs at least two '+'-separated members "
        "('adaptive:<b1>+<b2>[+...]'); an adaptive portfolio of one is just "
        "that backend");
  }
}

TEST(AdaptiveSolverTest, EmptyMembersAreRejectedByPosition) {
  ExpectCreateFails("adaptive:+tabu_search", StatusCode::kInvalidArgument,
                    "adaptive solver name 'adaptive:+tabu_search' has an "
                    "empty member at position 0");
  ExpectCreateFails("adaptive:simulated_annealing++tabu_search",
                    StatusCode::kInvalidArgument,
                    "has an empty member at position 1");
  ExpectCreateFails("adaptive:simulated_annealing+",
                    StatusCode::kInvalidArgument,
                    "has an empty member at position 1");
}

TEST(AdaptiveSolverTest, NestedSelectorCompositionsAreRejected) {
  ExpectCreateFails(
      "adaptive:adaptive:exact+tabu_search+vqe", StatusCode::kInvalidArgument,
      "nested adaptive backends are not supported ('adaptive:exact' inside "
      "'adaptive:adaptive:exact+tabu_search+vqe'): '+' would be ambiguous");
  ExpectCreateFails(
      "adaptive:race:exact+tabu_search+vqe", StatusCode::kInvalidArgument,
      "race backends cannot be adaptive members ('race:exact' inside "
      "'adaptive:race:exact+tabu_search+vqe'): '+' would be ambiguous");
  ExpectCreateFails(
      "race:adaptive:exact+tabu_search+vqe", StatusCode::kInvalidArgument,
      "adaptive backends cannot be race members ('adaptive:exact' inside "
      "'race:adaptive:exact+tabu_search+vqe'): '+' would be ambiguous");
}

TEST(AdaptiveSolverTest, MemberDiagnosesSurviveTheWrapping) {
  // Unknown plain member: the registry's NotFound, annotated.
  ExpectCreateFails(
      "adaptive:simulated_annealing+warp_drive", StatusCode::kNotFound,
      "adaptive solver 'adaptive:simulated_annealing+warp_drive' member "
      "'warp_drive'");
  // Malformed embedded member: stays InvalidArgument with the spec error
  // (Create, not Contains).
  ExpectCreateFails(
      "adaptive:simulated_annealing+embedded:simulated_annealing:torus:9",
      StatusCode::kInvalidArgument, "torus");
}

// -- Composition
// ---------------------------------------------------------------

TEST(AdaptiveSolverTest, ComposesWithEmbeddedAndNoisyMembers) {
  const std::string name =
      "adaptive:embedded:simulated_annealing:chimera:4x4x4+"
      "noisy:depol@0.05:qaoa+tabu_search";
  const std::vector<Qubo> qubos = SmallBatch(4);
  const SolverOptions options = FastOptions(5);
  auto one = SolveBatchParallel(name, qubos, options, 1);
  ASSERT_TRUE(one.ok()) << one.status();
  for (int threads : {2, 8}) {
    auto many = SolveBatchParallel(name, qubos, options, threads);
    ASSERT_TRUE(many.ok()) << many.status();
    for (size_t i = 0; i < one->size(); ++i) {
      EXPECT_TRUE(BitIdentical((*one)[i], (*many)[i]))
          << name << " threads=" << threads << " instance " << i;
    }
  }
}

TEST(AdaptiveSolverTest, NoisyWrappedSelectorKeepsItsScheduleInBatches) {
  // noisy:<model>:adaptive:... must forward whole batches to the selector
  // (NoisySolver::SolveBatch passthrough), keeping thread-count
  // bit-identity even across the explore/commit boundary.
  const std::string name = std::string("noisy:depol@0.05:") + kDefaultName;
  const std::vector<Qubo> qubos =
      SmallBatch(PortfolioSolver::kExploreInstances + 4);
  const SolverOptions options = FastOptions(23);
  auto one = SolveBatchParallel(name, qubos, options, 1);
  ASSERT_TRUE(one.ok()) << one.status();
  for (int threads : {2, 8}) {
    auto many = SolveBatchParallel(name, qubos, options, threads);
    ASSERT_TRUE(many.ok()) << many.status();
    for (size_t i = 0; i < one->size(); ++i) {
      EXPECT_TRUE(BitIdentical((*one)[i], (*many)[i]))
          << name << " threads=" << threads << " instance " << i;
    }
  }
  // The commit-phase decisions really crossed the boundary.
  EXPECT_EQ((*one)[0].decision().rfind("explore:", 0), 0u);
  EXPECT_EQ((*one)[qubos.size() - 1].decision().rfind("commit:", 0), 0u);
}

TEST(AdaptiveSolverTest, SharedRngIsHonoredSequentially) {
  // A caller-shared Rng is legal on the sequential path and advances
  // through both phases without aborting; fanning it out is rejected by
  // the batch machinery as for every backend.
  auto created = SolverRegistry::Global().Create(kDefaultName);
  ASSERT_TRUE(created.ok()) << created.status();
  Rng rng(99);
  SolverOptions options = FastOptions(0);
  options.rng = &rng;
  const std::vector<Qubo> qubos =
      SmallBatch(PortfolioSolver::kExploreInstances + 1);
  for (size_t i = 0; i < qubos.size(); ++i) {
    auto samples = (*created)->Solve(qubos[i], options);
    ASSERT_TRUE(samples.ok()) << "solve " << i << ": " << samples.status();
    EXPECT_FALSE(samples->empty()) << "solve " << i;
  }
  auto rejected = SolveBatchParallel(kDefaultName, qubos, options, 4);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace anneal
}  // namespace qdm
