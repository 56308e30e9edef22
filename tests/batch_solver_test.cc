// The batched-solving contract (QuboSolver::SolveBatch, SolveBatchParallel,
// and the qopt batch entry points): per-instance seed derivation,
// thread-count invariance of the qopt entry points, and all-or-nothing
// error propagation with the failing instance named. Every backend's batch
// vs. per-instance-solve bit identity at 1, 2 and 8 threads is checked in
// backend_conformance_test.cc.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "qdm/anneal/solver.h"
#include "qdm/common/rng.h"
#include "qdm/qopt/mqo.h"
#include "qdm/qopt/txn_scheduling.h"

namespace qdm {
namespace anneal {
namespace {

/// A small batch of distinct 3-variable instances (kept tiny so even the
/// state-vector bridges solve them in milliseconds).
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

/// Options cheap enough to run through every backend family.
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

TEST(BatchSolverTest, DeriveBatchOptionsShiftsSeedAndClearsRng) {
  Rng rng(1);
  SolverOptions options;
  options.seed = 100;
  options.rng = &rng;
  options.num_sweeps = 7;
  SolverOptions derived = DeriveBatchOptions(options, 5);
  EXPECT_EQ(derived.seed, 105u);
  EXPECT_EQ(derived.rng, nullptr);
  EXPECT_EQ(derived.num_sweeps, 7);
}

TEST(BatchSolverTest, InvalidInstanceFailsWholeBatchNamingTheInstance) {
  // Instance 1 exceeds the exact solver's 30-variable enumeration limit.
  std::vector<Qubo> qubos = SmallBatch(3);
  Qubo oversized(31);
  for (int i = 0; i < 31; ++i) oversized.AddLinear(i, -1.0);
  qubos[1] = oversized;
  SolverOptions options = FastOptions(3);
  for (int threads : {1, 4}) {
    auto result = SolveBatchParallel("exact", qubos, options, threads);
    ASSERT_FALSE(result.ok()) << threads << " threads";
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << threads << " threads";
    EXPECT_NE(result.status().message().find("batch instance 1"),
              std::string::npos)
        << threads << " threads: " << result.status().message();
  }
}

TEST(BatchSolverTest, BatchOfOneReportsTheBareUnderlyingError) {
  // The single-shot entry points are batch-of-one wrappers; their callers
  // never asked for batch framing, so the "batch instance" prefix must not
  // leak into their error messages.
  Qubo oversized(31);
  for (int i = 0; i < 31; ++i) oversized.AddLinear(i, -1.0);
  auto result = SolveBatchParallel("exact", {oversized}, FastOptions(3), 1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.status().message().find("batch instance"), std::string::npos)
      << result.status().message();
}

TEST(BatchSolverTest, SharedRngIsRejectedUnlessStrictlySequential) {
  const std::vector<Qubo> qubos = SmallBatch(3);
  Rng rng(5);
  SolverOptions options = FastOptions(0);
  options.rng = &rng;
  auto parallel = SolveBatchParallel("simulated_annealing", qubos, options, 4);
  ASSERT_FALSE(parallel.ok());
  EXPECT_EQ(parallel.status().code(), StatusCode::kInvalidArgument);

  // num_threads == 1 is the sequential reference path and honors the rng.
  auto sequential =
      SolveBatchParallel("simulated_annealing", qubos, options, 1);
  ASSERT_TRUE(sequential.ok()) << sequential.status();
  EXPECT_EQ(sequential->size(), qubos.size());
}

TEST(BatchSolverTest, EmptyBatchSucceedsWithEmptyResult) {
  auto result =
      SolveBatchParallel("simulated_annealing", {}, FastOptions(1), 4);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->empty());
}

TEST(BatchSolverTest, UnknownSolverAndBadOptionsAreRejectedUpFront) {
  const std::vector<Qubo> qubos = SmallBatch(2);
  auto unknown = SolveBatchParallel("warp_drive", qubos, FastOptions(1), 2);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);

  SolverOptions bad = FastOptions(1);
  bad.num_reads = 0;
  auto invalid = SolveBatchParallel("simulated_annealing", qubos, bad, 2);
  ASSERT_FALSE(invalid.ok());
  EXPECT_EQ(invalid.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace anneal

namespace qopt {
namespace {

std::vector<MqoProblem> MqoBatch(int count, Rng* rng) {
  std::vector<MqoProblem> problems;
  problems.reserve(count);
  for (int i = 0; i < count; ++i) {
    problems.push_back(GenerateMqoProblem(4, 3, 0.3, rng));
  }
  return problems;
}

TEST(BatchSolverTest, SolveMqoBatchMatchesPerProblemSolveMqoWithDerivedSeeds) {
  Rng rng(11);
  const std::vector<MqoProblem> problems = MqoBatch(4, &rng);
  anneal::SolverOptions options;
  options.num_reads = 5;
  options.num_sweeps = 200;
  options.seed = 99;
  auto batch = SolveMqoBatch(problems, "simulated_annealing", options);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch->size(), problems.size());
  for (size_t i = 0; i < problems.size(); ++i) {
    anneal::SolverOptions single = options;
    single.seed = options.seed + i;
    auto solo = SolveMqo(problems[i], "simulated_annealing", single);
    ASSERT_TRUE(solo.ok()) << solo.status();
    EXPECT_EQ((*batch)[i].plan_choice, solo->plan_choice) << "instance " << i;
    EXPECT_EQ((*batch)[i].feasible, solo->feasible) << "instance " << i;
  }
}

TEST(BatchSolverTest, SolveMqoBatchIsThreadCountInvariant) {
  Rng rng(12);
  const std::vector<MqoProblem> problems = MqoBatch(6, &rng);
  anneal::SolverOptions options;
  options.num_reads = 5;
  options.num_sweeps = 200;
  options.seed = 7;
  auto one = SolveMqoBatch(problems, "simulated_annealing", options, 0.0, 1);
  ASSERT_TRUE(one.ok()) << one.status();
  for (int threads : {2, 8}) {
    auto many =
        SolveMqoBatch(problems, "simulated_annealing", options, 0.0, threads);
    ASSERT_TRUE(many.ok()) << many.status();
    ASSERT_EQ(many->size(), one->size());
    for (size_t i = 0; i < one->size(); ++i) {
      EXPECT_EQ((*many)[i].plan_choice, (*one)[i].plan_choice)
          << threads << " threads, instance " << i;
      EXPECT_EQ((*many)[i].cost, (*one)[i].cost)
          << threads << " threads, instance " << i;
    }
  }
}

TEST(BatchSolverTest, SolveTxnScheduleEpochsSolvesEveryEpochDeterministically) {
  Rng rng(13);
  std::vector<TxnScheduleProblem> epochs;
  for (int e = 0; e < 5; ++e) {
    epochs.push_back(GenerateTxnSchedule(5, 5, 2, /*num_slots=*/0, &rng));
  }
  anneal::SolverOptions options;
  options.num_reads = 10;
  options.num_sweeps = 400;
  options.seed = 21;
  auto one = SolveTxnScheduleEpochs(epochs, "simulated_annealing", options, 0.0,
                                    1.0, 1);
  ASSERT_TRUE(one.ok()) << one.status();
  ASSERT_EQ(one->size(), epochs.size());
  for (const Schedule& schedule : *one) {
    EXPECT_TRUE(schedule.feasible);
  }
  for (int threads : {2, 8}) {
    auto many = SolveTxnScheduleEpochs(epochs, "simulated_annealing", options,
                                       0.0, 1.0, threads);
    ASSERT_TRUE(many.ok()) << many.status();
    ASSERT_EQ(many->size(), one->size());
    for (size_t i = 0; i < one->size(); ++i) {
      EXPECT_EQ((*many)[i].slot_of_txn, (*one)[i].slot_of_txn)
          << threads << " threads, epoch " << i;
    }
  }
}

}  // namespace
}  // namespace qopt
}  // namespace qdm
