// The backend conformance matrix. The Figure 2 strategy interface
// (anneal/solver.h) promises that registry backends are interchangeable and
// that a solve is a pure function of (qubo, options). This suite checks that
// promise for every registered name at once, on every path a QUBO can take
// to a backend:
//
//   - Solve, repeated, and under the scalar and the SIMD statevector tier;
//   - SolveBatchParallel at 1, 2 and 8 threads, where instance i must equal
//     Solve at DeriveBatchOptions(options, i);
//   - SolverService Submit and SubmitBatch;
//   - an in-process QdmServer driven through QdmClient.
//
// Every success is compared bit for bit with anneal::BitIdentical. One
// failing input must report the same (code, message) on every path. A
// backend registered later joins the matrix with no edit here.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include "qdm/anneal/qubo.h"
#include "qdm/anneal/sampler.h"
#include "qdm/anneal/solver.h"
#include "qdm/common/rng.h"
#include "qdm/common/status.h"
#include "qdm/net/client.h"
#include "qdm/net/server.h"
#include "qdm/service/solver_service.h"
#include "qdm/sim/statevector.h"

namespace qdm {
namespace {

using anneal::BitIdentical;
using anneal::Qubo;
using anneal::SampleSet;
using anneal::SolverOptions;

/// What list_solvers printed when the matrix was written. The matrix runs
/// over RegisteredNames(), which must still hold each of these.
constexpr const char* kListedNames[] = {
    "adaptive:simulated_annealing+tabu_search",
    "embedded:exact:chimera:1x1x4",
    "embedded:parallel_tempering:chimera:4x4x4",
    "embedded:simulated_annealing:chimera:4x4x4",
    "embedded:simulated_annealing:pegasus:6",
    "embedded:simulated_annealing:zephyr:4",
    "embedded:tabu_search:chimera:4x4x4",
    "exact",
    "grover_min",
    "noisy:depol@0.01:qaoa",
    "parallel_tempering",
    "qaoa",
    "race:simulated_annealing+tabu_search",
    "simulated_annealing",
    "tabu_search",
    "vqe",
};

Qubo MakeQubo(int num_variables, uint64_t seed) {
  Rng rng(seed);
  Qubo qubo(num_variables);
  for (int i = 0; i < num_variables; ++i) {
    qubo.AddLinear(i, rng.Uniform(-1, 1));
    for (int j = i + 1; j < num_variables; ++j) {
      qubo.AddQuadratic(i, j, rng.Uniform(-1, 1));
    }
  }
  return qubo;
}

std::vector<Qubo> MakeBatch() {
  return {MakeQubo(4, 31), MakeQubo(3, 32), MakeQubo(4, 33)};
}

/// Cheap for every backend family (each reads only its own knobs), and
/// weak enough that the heuristics do not all land on the optimum: their
/// samples then depend on the seed, so a path that solves with the wrong
/// seed shows. exact, embedded:exact, grover_min and vqe return the same
/// samples for any seed on problems this small.
SolverOptions FastOptions() {
  SolverOptions options;
  options.num_reads = 4;
  options.num_sweeps = 3;
  options.num_replicas = 2;
  options.max_iterations = 2;
  options.layers = 1;
  options.restarts = 1;
  options.seed = 17;
  return options;
}

/// Sets the process-wide statevector tier for one scope.
class ScopedSimdTier {
 public:
  explicit ScopedSimdTier(sim::SimdMode mode)
      : previous_(sim::Statevector::DefaultExecutionConfig()) {
    sim::ExecutionConfig config = previous_;
    config.simd = mode;
    sim::Statevector::SetDefaultExecutionConfig(config);
  }
  ~ScopedSimdTier() { sim::Statevector::SetDefaultExecutionConfig(previous_); }

 private:
  sim::ExecutionConfig previous_;
};

constexpr sim::SimdMode kTiers[] = {sim::SimdMode::kScalar,
                                    sim::SimdMode::kAuto};

const char* TierName(sim::SimdMode mode) {
  return mode == sim::SimdMode::kScalar ? "scalar tier" : "SIMD tier";
}

void ExpectSameBatch(const std::vector<SampleSet>& actual,
                     const std::vector<SampleSet>& expected,
                     const std::string& path) {
  ASSERT_EQ(actual.size(), expected.size()) << path;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(BitIdentical(actual[i], expected[i]))
        << path << ", instance " << i;
  }
}

class BackendConformanceTest : public ::testing::TestWithParam<std::string> {
 protected:
  static void SetUpTestSuite() {
    service_ = new service::SolverService(service::ServiceConfig{2, 0, 0});
    net::ServerConfig config;
    config.port = 0;
    config.service.num_workers = 2;
    auto server = net::QdmServer::Start(config);
    ASSERT_TRUE(server.ok()) << server.status();
    server_ = server->release();
    client_ = new net::QdmClient(server_->port());
  }

  static void TearDownTestSuite() {
    delete client_;
    delete server_;
    delete service_;
  }

  static service::SolverService* service_;
  static net::QdmServer* server_;
  static net::QdmClient* client_;
};

service::SolverService* BackendConformanceTest::service_ = nullptr;
net::QdmServer* BackendConformanceTest::server_ = nullptr;
net::QdmClient* BackendConformanceTest::client_ = nullptr;

TEST(BackendConformanceNamesTest, MatrixCoversEveryListedName) {
  const std::vector<std::string> names =
      anneal::SolverRegistry::Global().RegisteredNames();
  for (const char* listed : kListedNames) {
    EXPECT_NE(std::find(names.begin(), names.end(), listed), names.end())
        << listed;
  }
}

TEST_P(BackendConformanceTest, EveryPathReturnsTheSolveSampleSet) {
  const std::string& name = GetParam();
  const Qubo qubo = MakeQubo(4, 21);
  const SolverOptions options = FastOptions();
  const auto reference = anneal::SolveWith(name, qubo, options);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_FALSE(reference->empty());

  const auto again = anneal::SolveWith(name, qubo, options);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_TRUE(BitIdentical(*again, *reference)) << "Solve, repeated";

  for (sim::SimdMode tier : kTiers) {
    ScopedSimdTier scoped(tier);
    const auto tiered = anneal::SolveWith(name, qubo, options);
    ASSERT_TRUE(tiered.ok()) << TierName(tier) << ": " << tiered.status();
    EXPECT_TRUE(BitIdentical(*tiered, *reference)) << TierName(tier);
  }

  const auto submitted = service_->Submit(name, qubo, options);
  ASSERT_TRUE(submitted.ok()) << submitted.status();
  const auto waited = service_->Wait(submitted->id);
  ASSERT_TRUE(waited.ok()) << waited.status();
  ASSERT_EQ(waited->size(), 1u);
  EXPECT_TRUE(BitIdentical((*waited)[0], *reference)) << "service Submit";

  const auto remote = client_->Solve(name, qubo, options);
  ASSERT_TRUE(remote.ok()) << remote.status();
  EXPECT_TRUE(BitIdentical(*remote, *reference)) << "QdmClient Solve";
}

TEST_P(BackendConformanceTest, EveryBatchPathMatchesPerInstanceSolve) {
  const std::string& name = GetParam();
  const std::vector<Qubo> qubos = MakeBatch();
  const SolverOptions options = FastOptions();
  std::vector<SampleSet> expected;
  for (size_t i = 0; i < qubos.size(); ++i) {
    const auto single = anneal::SolveWith(
        name, qubos[i], anneal::DeriveBatchOptions(options, i));
    ASSERT_TRUE(single.ok()) << "instance " << i << ": " << single.status();
    expected.push_back(*single);
  }

  for (int threads : {1, 2, 8}) {
    const auto batch =
        anneal::SolveBatchParallel(name, qubos, options, threads);
    ASSERT_TRUE(batch.ok()) << threads << " threads: " << batch.status();
    ExpectSameBatch(
        *batch, expected,
        "SolveBatchParallel at " + std::to_string(threads) + " threads");
  }

  const auto submitted = service_->SubmitBatch(name, qubos, options);
  ASSERT_TRUE(submitted.ok()) << submitted.status();
  const auto waited = service_->Wait(submitted->id);
  ASSERT_TRUE(waited.ok()) << waited.status();
  ExpectSameBatch(*waited, expected, "service SubmitBatch");

  const auto remote = client_->SolveBatch(name, qubos, options);
  ASSERT_TRUE(remote.ok()) << remote.status();
  ExpectSameBatch(*remote, expected, "QdmClient SolveBatch");
}

TEST_P(BackendConformanceTest, FailingInputReportsOneStatusOnEveryPath) {
  // A pinned Status, not one derived from a path: the same (code, message)
  // on every path, the batch paths included (the options are rejected
  // before any instance runs, so no "batch instance" prefix).
  const Status expected =
      Status::InvalidArgument("num_reads must be positive, got 0");
  const std::string& name = GetParam();
  const Qubo qubo = MakeQubo(4, 21);
  const std::vector<Qubo> qubos = MakeBatch();
  SolverOptions options = FastOptions();
  options.num_reads = 0;

  EXPECT_EQ(anneal::SolveWith(name, qubo, options).status(), expected)
      << "Solve";
  for (sim::SimdMode tier : kTiers) {
    ScopedSimdTier scoped(tier);
    EXPECT_EQ(anneal::SolveWith(name, qubo, options).status(), expected)
        << TierName(tier);
  }
  for (int threads : {1, 2, 8}) {
    EXPECT_EQ(
        anneal::SolveBatchParallel(name, qubos, options, threads).status(),
        expected)
        << "SolveBatchParallel at " << threads << " threads";
    auto solver = anneal::SolverRegistry::Global().Create(name);
    ASSERT_TRUE(solver.ok()) << solver.status();
    EXPECT_EQ((*solver)->SolveBatch(qubos, options, threads).status(), expected)
        << "direct SolveBatch at " << threads << " threads";
  }
  EXPECT_EQ(service_->Submit(name, qubo, options).status(), expected)
      << "service Submit";
  EXPECT_EQ(service_->SubmitBatch(name, qubos, options).status(), expected)
      << "service SubmitBatch";
  EXPECT_EQ(client_->Solve(name, qubo, options).status(), expected)
      << "QdmClient Solve";
  EXPECT_EQ(client_->SolveBatch(name, qubos, options).status(), expected)
      << "QdmClient SolveBatch";
}

std::string TestNameOf(const ::testing::TestParamInfo<std::string>& info) {
  std::string out = info.param;
  std::replace_if(
      out.begin(), out.end(),
      [](unsigned char c) { return std::isalnum(c) == 0; }, '_');
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Registry, BackendConformanceTest,
    ::testing::ValuesIn(anneal::SolverRegistry::Global().RegisteredNames()),
    TestNameOf);

}  // namespace
}  // namespace qdm
