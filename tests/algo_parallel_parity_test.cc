// Property-style parity tests at the APPLICATION level: every gate-based
// entry point (QAOA join ordering, Grover minimum finding, QPE) must return
// identical results whether the statevector kernels run on 1 thread or 8,
// and whether the SIMD tier is on or off. The kernels are bit-identical by
// construction (statevector_parallel_test pins that), so neither parallelism
// nor vectorization can silently change a SampleSet, an energy, or a phase
// estimate — this suite guards the end-to-end claim.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "qdm/algo/qpe.h"
#include "qdm/anneal/qubo.h"
#include "qdm/anneal/solver.h"
#include "qdm/common/rng.h"
#include "qdm/db/join_graph.h"
#include "qdm/qopt/join_order_qubo.h"
#include "qdm/sim/statevector.h"

namespace qdm {
namespace {

/// Sets the process-wide kernel config for one scope; serial_cutoff 1 forces
/// the parallel path even on the small states these tests use.
class ScopedDefaultExecutionConfig {
 public:
  explicit ScopedDefaultExecutionConfig(
      int num_threads, sim::SimdMode simd = sim::SimdMode::kAuto)
      : previous_(sim::Statevector::DefaultExecutionConfig()) {
    sim::Statevector::SetDefaultExecutionConfig(
        sim::ExecutionConfig{num_threads, /*serial_cutoff=*/1, simd});
  }
  ~ScopedDefaultExecutionConfig() {
    sim::Statevector::SetDefaultExecutionConfig(previous_);
  }

 private:
  sim::ExecutionConfig previous_;
};

anneal::Qubo SmallQubo(int num_variables, uint64_t seed) {
  Rng rng(seed);
  anneal::Qubo qubo(num_variables);
  for (int i = 0; i < num_variables; ++i) qubo.AddLinear(i, rng.Uniform(-1, 1));
  for (int i = 0; i < num_variables; ++i) {
    for (int j = i + 1; j < num_variables; ++j) {
      qubo.AddQuadratic(i, j, rng.Uniform(-1, 1));
    }
  }
  return qubo;
}

TEST(AlgoParallelParityTest, QaoaJoinOrderingIdenticalAt1And8Threads) {
  Rng graph_rng(21);
  const db::JoinGraph graph = db::JoinGraph::RandomClique(3, &graph_rng);
  anneal::SolverOptions options;
  options.num_reads = 8;
  options.seed = 17;
  options.layers = 1;
  options.restarts = 1;

  qopt::JoinOrderSolution serial, parallel;
  {
    ScopedDefaultExecutionConfig scoped(1);
    auto result = qopt::SolveJoinOrder(graph, "qaoa", options);
    ASSERT_TRUE(result.ok()) << result.status();
    serial = *result;
  }
  {
    ScopedDefaultExecutionConfig scoped(8);
    auto result = qopt::SolveJoinOrder(graph, "qaoa", options);
    ASSERT_TRUE(result.ok()) << result.status();
    parallel = *result;
  }
  EXPECT_EQ(serial.order, parallel.order);
  EXPECT_EQ(serial.strict_feasible, parallel.strict_feasible);
  EXPECT_EQ(serial.best_energy, parallel.best_energy);
}

TEST(AlgoParallelParityTest, QaoaSolverSampleSetsIdenticalAt1And8Threads) {
  const anneal::Qubo qubo = SmallQubo(6, 5);
  anneal::SolverOptions options;
  options.num_reads = 10;
  options.seed = 3;
  options.layers = 2;
  options.restarts = 2;

  anneal::SampleSet serial, parallel;
  {
    ScopedDefaultExecutionConfig scoped(1);
    auto result = anneal::SolveWith("qaoa", qubo, options);
    ASSERT_TRUE(result.ok()) << result.status();
    serial = *result;
  }
  {
    ScopedDefaultExecutionConfig scoped(8);
    auto result = anneal::SolveWith("qaoa", qubo, options);
    ASSERT_TRUE(result.ok()) << result.status();
    parallel = *result;
  }
  EXPECT_TRUE(anneal::BitIdentical(serial, parallel));
}

// The SIMD axis of the same guarantee: a full QAOA solve (cost layers via
// ApplyDiagonalPhase, mixer layers via Apply1Q, then sampling) must produce
// an identical SampleSet with the vector tier on (kAuto) vs forced off. On
// machines without a vector tier kAuto resolves to scalar and the test is
// trivially green.
TEST(AlgoParallelParityTest, QaoaSampleSetsIdenticalWithSimdOnAndOff) {
  const anneal::Qubo qubo = SmallQubo(6, 11);
  anneal::SolverOptions options;
  options.num_reads = 10;
  options.seed = 7;
  options.layers = 2;
  options.restarts = 2;

  anneal::SampleSet scalar, simd;
  {
    ScopedDefaultExecutionConfig scoped(8, sim::SimdMode::kScalar);
    auto result = anneal::SolveWith("qaoa", qubo, options);
    ASSERT_TRUE(result.ok()) << result.status();
    scalar = *result;
  }
  {
    ScopedDefaultExecutionConfig scoped(8, sim::SimdMode::kAuto);
    auto result = anneal::SolveWith("qaoa", qubo, options);
    ASSERT_TRUE(result.ok()) << result.status();
    simd = *result;
  }
  EXPECT_TRUE(anneal::BitIdentical(scalar, simd));
}

TEST(AlgoParallelParityTest, GroverMinSampleSetsIdenticalAt1And8Threads) {
  const anneal::Qubo qubo = SmallQubo(5, 8);
  anneal::SolverOptions options;
  options.num_reads = 4;
  options.seed = 29;

  anneal::SampleSet serial, parallel;
  {
    ScopedDefaultExecutionConfig scoped(1);
    auto result = anneal::SolveWith("grover_min", qubo, options);
    ASSERT_TRUE(result.ok()) << result.status();
    serial = *result;
  }
  {
    ScopedDefaultExecutionConfig scoped(8);
    auto result = anneal::SolveWith("grover_min", qubo, options);
    ASSERT_TRUE(result.ok()) << result.status();
    parallel = *result;
  }
  EXPECT_TRUE(anneal::BitIdentical(serial, parallel));
}

TEST(AlgoParallelParityTest, QpeEstimateIdenticalAt1And8Threads) {
  for (double phase : {0.15625, 0.3, 0.8125}) {
    algo::QpeResult serial, parallel;
    {
      ScopedDefaultExecutionConfig scoped(1);
      Rng rng(61);
      serial = algo::EstimatePhase(phase, /*precision_qubits=*/6, &rng);
    }
    {
      ScopedDefaultExecutionConfig scoped(8);
      Rng rng(61);
      parallel = algo::EstimatePhase(phase, /*precision_qubits=*/6, &rng);
    }
    EXPECT_EQ(serial.raw, parallel.raw) << "phase " << phase;
    EXPECT_EQ(serial.estimate, parallel.estimate) << "phase " << phase;
  }
}

}  // namespace
}  // namespace qdm
