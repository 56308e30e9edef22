#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "qdm/anneal/solver.h"
#include "qdm/common/rng.h"
#include "qdm/common/status.h"
#include "qdm/common/strings.h"
#include "qdm/qopt/mqo.h"

namespace qdm {
namespace anneal {
namespace {

/// 4-variable QUBO with a unique known ground state x = (1, 1, 0, 0):
///   E(x) = -2 x0 - 2 x1 + x2 + x3 + x0 x1 + 3 x2 x3
/// Ground energy: -2 - 2 + 1 = -3.
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

constexpr double kGroundEnergy = -3.0;
const Assignment kGroundState = {1, 1, 0, 0};

TEST(SolverRegistryTest, BuiltinAndBridgedSolversAreRegistered) {
  auto& registry = SolverRegistry::Global();
  // Anneal-layer builtins.
  for (const std::string name :
       {"simulated_annealing", "parallel_tempering", "tabu_search", "exact"}) {
    EXPECT_TRUE(registry.Contains(name)) << name;
  }
  // Gate-based backends registered from qdm/algo via static registrar.
  for (const std::string name : {"qaoa", "vqe", "grover_min"}) {
    EXPECT_TRUE(registry.Contains(name)) << name;
  }
  std::vector<std::string> names = registry.RegisteredNames();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_GE(names.size(), 7u);
}

TEST(SolverRegistryTest, UnknownNameReturnsClearNotFound) {
  auto result = SolverRegistry::Global().Create("quantum_annealer_9000");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  // The message names the missing solver and lists what IS registered.
  EXPECT_NE(result.status().message().find("quantum_annealer_9000"),
            std::string::npos);
  EXPECT_NE(result.status().message().find("simulated_annealing"),
            std::string::npos);
}

TEST(SolverRegistryTest, SolveWithPropagatesUnknownSolverError) {
  Qubo q = KnownGroundStateQubo();
  auto result = SolveWith("no_such_backend", q, SolverOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(SolverRegistryTest, DuplicateRegistrationIsRejected) {
  auto& registry = SolverRegistry::Global();
  Status status =
      registry.Register("exact", [] { return std::unique_ptr<QuboSolver>(); });
  EXPECT_EQ(status.code(), StatusCode::kAlreadyExists);
}

TEST(SolverRegistryTest, EverySolverProducesValidSamplesOnKnownGroundState) {
  const Qubo q = KnownGroundStateQubo();
  for (const std::string& name : SolverRegistry::Global().RegisteredNames()) {
    Rng rng(7);
    SolverOptions options;
    options.num_reads = 40;
    options.num_sweeps = 400;
    options.restarts = 4;
    options.rng = &rng;
    auto result = SolveWith(name, q, options);
    ASSERT_TRUE(result.ok()) << name << ": " << result.status();
    ASSERT_FALSE(result->empty()) << name;
    for (const Sample& sample : result->samples()) {
      ASSERT_EQ(sample.assignment.size(), 4u) << name;
      for (int bit : sample.assignment) {
        ASSERT_TRUE(bit == 0 || bit == 1) << name;
      }
      // Reported energies must be consistent with the model.
      EXPECT_NEAR(sample.energy, q.Energy(sample.assignment), 1e-9) << name;
      EXPECT_GE(sample.energy, kGroundEnergy - 1e-9) << name;
    }
    // The non-variational backends must find the unique ground state on a
    // 4-variable instance (the variational ones are approximate optimizers).
    if (name != "qaoa" && name != "vqe") {
      EXPECT_NEAR(result->best().energy, kGroundEnergy, 1e-9) << name;
      EXPECT_EQ(result->best().assignment, kGroundState) << name;
    }
  }
}

TEST(SolverRegistryTest, SeedGivesReproducibleResultsWithoutExternalRng) {
  const Qubo q = KnownGroundStateQubo();
  SolverOptions options;
  options.num_reads = 5;
  options.seed = 1234;
  auto a = SolveWith("simulated_annealing", q, options);
  auto b = SolveWith("simulated_annealing", q, options);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ(a->samples()[i].assignment, b->samples()[i].assignment);
  }
}

TEST(SolverRegistryTest, InvalidNumReadsIsAnErrorOnEveryBackendFamily) {
  const Qubo q = KnownGroundStateQubo();
  SolverOptions options;
  options.num_reads = 0;
  // Every backend family must agree on the options contract.
  for (const std::string name :
       {"simulated_annealing", "exact", "qaoa", "grover_min"}) {
    auto result = SolveWith(name, q, options);
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << name;
  }
}

TEST(SolverRegistryTest, HalfSetBetaLadderIsAnErrorNotAnAbort) {
  // Setting only one inverse-temperature endpoint used to abort inside
  // SimulatedAnnealer (QDM_CHECK_GT(beta_min, 0)) or degrade
  // ParallelTempering to NaN betas; the registry contract demands a Status.
  const Qubo q = KnownGroundStateQubo();
  for (const std::string name : {"simulated_annealing", "parallel_tempering"}) {
    SolverOptions only_max;
    only_max.beta_max = 5.0;
    auto result = SolveWith(name, q, only_max);
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << name;

    SolverOptions only_min;
    only_min.beta_min = 0.5;
    result = SolveWith(name, q, only_min);
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << name;

    SolverOptions inverted;
    inverted.beta_min = 5.0;
    inverted.beta_max = 0.5;
    result = SolveWith(name, q, inverted);
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << name;

    SolverOptions both;
    both.beta_min = 0.5;
    both.beta_max = 5.0;
    both.seed = 9;
    auto ok = SolveWith(name, q, both);
    ASSERT_TRUE(ok.ok()) << name << ": " << ok.status();
  }
}

TEST(SolverRegistryTest, NonFiniteBetaLadderIsAnError) {
  // NaN fails both `> 0` and `< 0`, so a NaN endpoint once read as unset:
  // NaN/NaN and 0/NaN passed validation and reached the sweeps, as did
  // inf/inf and 1/inf. The sweeps then rejected every uphill move.
  const Qubo q = KnownGroundStateQubo();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::pair<double, double> ladders[] = {
      {nan, nan}, {0.0, nan}, {nan, 0.0}, {inf, inf}, {1.0, inf}};
  for (const std::string name : {"simulated_annealing", "parallel_tempering"}) {
    for (const auto& [beta_min, beta_max] : ladders) {
      SolverOptions options;
      options.beta_min = beta_min;
      options.beta_max = beta_max;
      const std::string label = name + " " + std::to_string(beta_min) + "/" +
                                std::to_string(beta_max);
      auto result = SolveWith(name, q, options);
      ASSERT_FALSE(result.ok()) << label;
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << label;
      EXPECT_EQ(result.status().message(),
                StrFormat("beta_min/beta_max must be finite, got %g/%g",
                          beta_min, beta_max))
          << label;
    }
  }
}

TEST(SolverRegistryTest, RaisedMaxQubitsStillFailsWithStatusNotDeath) {
  // options.max_qubits above the 26-qubit BuildDiagonal cap must not turn
  // the InvalidArgument into a QDM_CHECK abort inside the gate-based stack.
  Qubo q(28);
  for (int i = 0; i < 28; ++i) q.AddLinear(i, -1.0);
  SolverOptions options;
  options.max_qubits = 30;
  for (const std::string name : {"qaoa", "vqe", "grover_min"}) {
    auto result = SolveWith(name, q, options);
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << name;
  }
}

TEST(SolverRegistryTest, OversizedProblemsFailWithStatusNotDeath) {
  // The registry layer turns "problem too big for this method" into an error
  // Status instead of a QDM_CHECK abort.
  Qubo big(40);
  for (int i = 0; i < 40; ++i) big.AddLinear(i, -1.0);
  for (const std::string name : {"exact", "grover_min", "qaoa", "vqe"}) {
    auto result = SolveWith(name, big, SolverOptions{});
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << name;
  }
}

TEST(SolverRegistryTest, SingleReplicaTemperingIsAnErrorNotAnAbort) {
  // One replica has no neighbour to exchange with: a Status, never an
  // abort, also inside the embedded: and race: families (an abort here
  // would take qdmd down with it).
  const Qubo q = KnownGroundStateQubo();
  SolverOptions options;
  options.num_replicas = 1;
  const std::string kMessage =
      "parallel_tempering needs num_replicas >= 2 to exchange replicas (0 = "
      "the default 8), got 1";
  const auto plain = SolveWith("parallel_tempering", q, options);
  EXPECT_EQ(plain.status(), Status::InvalidArgument(kMessage));

  const auto embedded =
      SolveWith("embedded:parallel_tempering:chimera:2x2x4", q, options);
  EXPECT_EQ(embedded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(embedded.status().message().find(kMessage), std::string::npos)
      << embedded.status();

  // A race survives a failing member: the other one (member 1, at seed + 1)
  // wins.
  const auto raced =
      SolveWith("race:parallel_tempering+tabu_search", q, options);
  ASSERT_TRUE(raced.ok()) << raced.status();
  const auto survivor =
      SolveWith("tabu_search", q, DeriveBatchOptions(options, 1));
  ASSERT_TRUE(survivor.ok()) << survivor.status();
  EXPECT_TRUE(BitIdentical(*raced, *survivor));
}

TEST(SolverRegistryTest, TabuTenurePastTheBudgetIsTabuForTheRestOfTheRun) {
  // Every tenure of at least max_iterations keeps a flip tabu to the end of
  // the run, so all of them give the same samples, INT_MAX included (where
  // an uncapped iter + tenure would overflow).
  Rng rng(6);
  const Qubo q = qopt::MqoToQubo(qopt::GenerateMqoProblem(5, 3, 0.4, &rng));
  SolverOptions options;
  options.num_reads = 3;
  options.seed = 5;
  options.max_iterations = 80;
  options.tenure = 80;
  const auto at_budget = SolveWith("tabu_search", q, options);
  ASSERT_TRUE(at_budget.ok()) << at_budget.status();
  for (int tenure : {1000, std::numeric_limits<int>::max()}) {
    options.tenure = tenure;
    const auto longer = SolveWith("tabu_search", q, options);
    ASSERT_TRUE(longer.ok()) << longer.status();
    EXPECT_TRUE(BitIdentical(*longer, *at_budget)) << "tenure " << tenure;
  }
}

}  // namespace
}  // namespace anneal
}  // namespace qdm
