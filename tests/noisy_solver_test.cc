// The registry-visible noisy backends ("noisy:<model>:<base>",
// docs/noise.md): default registration, dynamic prefix resolution, the full
// error taxonomy with exact messages, zero-rate bit-identity against every
// registered backend, bit-identical batch dispatch across thread counts and
// channel families, scalar/SIMD kernel parity on the trajectory path, the
// noise_fidelity metric, and composition with the race:* and embedded:*
// families.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "qdm/algo/noisy_sampling.h"
#include "qdm/anneal/noise_spec.h"
#include "qdm/anneal/noisy_solver.h"
#include "qdm/anneal/solver.h"
#include "qdm/common/rng.h"
#include "qdm/service/solver_service.h"
#include "qdm/sim/statevector.h"

namespace qdm {
namespace anneal {
namespace {

/// A small batch of distinct 3-variable instances — 3 qubits keeps every
/// gate-based bridge on the exact density-matrix noise path (3 <=
/// algo::kMaxDensityQubits).
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

/// 7 variables exceed algo::kMaxDensityQubits, forcing the per-shot
/// trajectory path.
Qubo TrajectoryPathQubo() {
  Qubo q(7);
  for (int i = 0; i < 7; ++i) q.AddLinear(i, i % 2 == 0 ? -1.0 : 0.7);
  q.AddQuadratic(0, 3, -0.4);
  q.AddQuadratic(2, 6, 1.1);
  return q;
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

// -- Registration and resolution ---------------------------------------------

TEST(NoisySolverTest, DefaultBackendIsRegistered) {
  auto& registry = SolverRegistry::Global();
  const std::string name = "noisy:depol@0.01:qaoa";
  EXPECT_TRUE(registry.Contains(name));
  const auto names = registry.RegisteredNames();
  EXPECT_NE(std::find(names.begin(), names.end(), name), names.end());
}

TEST(NoisySolverTest, ArbitrarySpecsResolveThroughThePrefixFactory) {
  auto& registry = SolverRegistry::Global();
  for (const std::string name :
       {"noisy:damp@0.05:vqe", "noisy:pauli@0.01,0.02,0.03:grover_min",
        "noisy:phase@0.2:qaoa", "noisy:readout@0.1:simulated_annealing"}) {
    // Not eagerly registered...
    const auto names = registry.RegisteredNames();
    EXPECT_EQ(std::find(names.begin(), names.end(), name), names.end())
        << name;
    // ...but still resolvable, reporting the name it was created under.
    EXPECT_TRUE(registry.Contains(name)) << name;
    auto solver = registry.Create(name);
    ASSERT_TRUE(solver.ok()) << name << ": " << solver.status();
    EXPECT_EQ((*solver)->name(), name);
  }
}

// -- Error taxonomy ----------------------------------------------------------

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

TEST(NoisySolverTest, MalformedModelTokensNameTheOffendingPiece) {
  ExpectCreateFails("noisy:bogus@0.1:qaoa", StatusCode::kInvalidArgument,
                    "names unknown channel 'bogus'");
  ExpectCreateFails("noisy:depol:qaoa", StatusCode::kInvalidArgument,
                    "noise model 'depol' is missing its '@<rate>' parameter");
  ExpectCreateFails("noisy:depol@zz:qaoa", StatusCode::kInvalidArgument,
                    "has unparseable rate 'zz'");
  ExpectCreateFails("noisy:depol@1.5:qaoa", StatusCode::kInvalidArgument,
                    "rate 1.5 outside [0, 1]");
  ExpectCreateFails("noisy:pauli@0.1:qaoa", StatusCode::kInvalidArgument,
                    "needs three ','-separated rates");
  ExpectCreateFails("noisy:pauli@0.5,0.4,0.3:qaoa",
                    StatusCode::kInvalidArgument, "rates sum to 1.2 > 1");
  // Every parse failure is annotated with the full solver spec.
  ExpectCreateFails("noisy:bogus@0.1:qaoa", StatusCode::kInvalidArgument,
                    "noisy solver 'noisy:bogus@0.1:qaoa'");
}

TEST(NoisySolverTest, UnknownBaseStaysNotFoundWithTheFullSpec) {
  ExpectCreateFails("noisy:depol@0.01:warp_drive", StatusCode::kNotFound,
                    "noisy solver 'noisy:depol@0.01:warp_drive' wraps base "
                    "'warp_drive'");
  // The base's own diagnosis survives the wrapping (Create, not Contains):
  // a malformed embedded topology stays InvalidArgument.
  ExpectCreateFails("noisy:depol@0.01:embedded:simulated_annealing:torus:9",
                    StatusCode::kInvalidArgument, "torus");
}

TEST(NoisySolverTest, MissingPiecesAreRejectedWithTheExpectedShape) {
  for (const std::string name :
       {"noisy:", "noisy:depol@0.01", "noisy:depol@0.01:"}) {
    ExpectCreateFails(name, StatusCode::kInvalidArgument,
                      "must have the form 'noisy:<model>:<base>'");
  }
}

TEST(NoisySolverTest, NestedNoisyIsRejectedInBothPositions) {
  ExpectCreateFails(
      "noisy:noisy:depol@0.01:qaoa", StatusCode::kInvalidArgument,
      "nested noisy backends are not supported ('noisy:depol@0.01:qaoa' "
      "inside 'noisy:noisy:depol@0.01:qaoa')");
  ExpectCreateFails(
      "noisy:depol@0.01:noisy:damp@0.02:qaoa", StatusCode::kInvalidArgument,
      "nested noisy backends are not supported ('noisy:damp@0.02:qaoa' "
      "inside 'noisy:depol@0.01:noisy:damp@0.02:qaoa')");
}

TEST(NoisySolverTest, PresetOptionsNoiseIsRejected) {
  auto spec = ParseNoiseSpec("damp@0.5");
  ASSERT_TRUE(spec.ok());
  SolverOptions options = FastOptions(1);
  options.noise = *spec;
  auto result =
      SolveWith("noisy:depol@0.01:qaoa", SmallBatch(1)[0], options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find(
                "options.noise is already set ('damp@0.5')"),
            std::string::npos)
      << result.status().message();
}

TEST(NoisySolverTest, BaseFailuresReadTheSameOnEveryBatchPath) {
  // A failing base is framed once — "batch instance <i>: <base error>" —
  // whether the batch runs on one thread, fans out, or goes through the
  // service's per-instance solves. 31 variables exceed the exact solver's
  // limit, so both arms of every explore race fail.
  const std::string name = "noisy:depol@0.05:adaptive:exact+exact";
  std::vector<Qubo> qubos;
  for (int k = 0; k < 3; ++k) {
    Qubo q(31);
    for (int i = 0; i < 31; ++i) q.AddLinear(i, -1.0 - k);
    qubos.push_back(q);
  }
  const SolverOptions options = FastOptions(9);
  const std::string expected =
      "batch instance 0: adaptive member 0 ('exact'): exact solver "
      "enumerates 2^n assignments; 31 variables exceed the 30-variable limit";
  for (int threads : {1, 2, 8}) {
    auto batch = SolveBatchParallel(name, qubos, options, threads);
    ASSERT_FALSE(batch.ok()) << threads << " threads";
    EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument)
        << threads << " threads";
    EXPECT_EQ(batch.status().message(), expected) << threads << " threads";
  }
  service::SolverService service;
  auto submitted = service.SubmitBatch(name, qubos, options);
  ASSERT_TRUE(submitted.ok()) << submitted.status();
  const auto& result = submitted->future.Get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.status().message(), expected);
}

// -- Zero-rate bit-identity --------------------------------------------------

TEST(NoisySolverTest, ZeroRateWrapperIsBitIdenticalToEveryBareBackend) {
  const Qubo q = SmallBatch(1)[0];
  const SolverOptions options = FastOptions(7);
  for (const std::string& name :
       SolverRegistry::Global().RegisteredNames()) {
    if (name.rfind("noisy:", 0) == 0) continue;  // One wrapper per backend.
    auto bare = SolveWith(name, q, options);
    ASSERT_TRUE(bare.ok()) << name << ": " << bare.status();
    auto wrapped = SolveWith("noisy:depol@0.0:" + name, q, options);
    ASSERT_TRUE(wrapped.ok()) << name << ": " << wrapped.status();
    EXPECT_TRUE(BitIdentical(*bare, *wrapped)) << "noisy:depol@0.0:" << name;
    EXPECT_EQ(wrapped->noise_fidelity(), 1.0) << name;
  }
}

// -- Determinism matrix ------------------------------------------------------

TEST(NoisySolverTest, BatchIsBitIdenticalAcrossThreadCountsForEveryChannel) {
  const std::vector<Qubo> qubos = SmallBatch(4);
  const SolverOptions options = FastOptions(17);
  const std::vector<std::string> models = {
      "depol@0.05", "damp@0.1", "pauli@0.02,0.01,0.03", "phase@0.1",
      "readout@0.05"};
  const std::vector<std::string> bases = {"qaoa", "vqe", "grover_min"};
  for (const std::string& model : models) {
    for (const std::string& base : bases) {
      const std::string name = "noisy:" + model + ":" + base;
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
      // Batch instance i == a standalone solve at seed + i.
      for (size_t i = 0; i < qubos.size(); ++i) {
        auto single =
            SolveWith(name, qubos[i], DeriveBatchOptions(options, i));
        ASSERT_TRUE(single.ok()) << name << ": " << single.status();
        EXPECT_TRUE(BitIdentical((*one)[i], *single))
            << name << " instance " << i << " vs derived single solve";
      }
    }
  }
}

// -- Scalar / SIMD kernel parity ---------------------------------------------

TEST(NoisySolverTest, TrajectoryPathIsIdenticalAcrossSimdTiers) {
  const Qubo q = TrajectoryPathQubo();
  SolverOptions options = FastOptions(29);
  options.num_reads = 8;
  const sim::ExecutionConfig saved = sim::Statevector::DefaultExecutionConfig();
  std::map<std::string, SampleSet> per_tier;
  for (sim::SimdMode mode : {sim::SimdMode::kScalar, sim::SimdMode::kAuto}) {
    sim::ExecutionConfig config = saved;
    config.simd = mode;
    config.serial_cutoff = 1;  // Exercise the parallel kernels too.
    sim::Statevector::SetDefaultExecutionConfig(config);
    auto result = SolveWith("noisy:depol@0.05:qaoa", q, options);
    sim::Statevector::SetDefaultExecutionConfig(saved);
    ASSERT_TRUE(result.ok()) << result.status();
    per_tier.emplace(mode == sim::SimdMode::kScalar ? "scalar" : "simd",
                     std::move(result).value());
  }
  EXPECT_TRUE(BitIdentical(per_tier.at("scalar"), per_tier.at("simd")))
      << "scalar vs simd trajectory path";
}

// -- Fidelity metric ---------------------------------------------------------

TEST(NoisySolverTest, NoiseFidelityIsReportedOnBothPaths) {
  SolverOptions options = FastOptions(3);
  options.num_reads = 8;
  // Density path (3 qubits).
  auto density = SolveWith("noisy:depol@0.05:qaoa", SmallBatch(1)[0],
                           options);
  ASSERT_TRUE(density.ok()) << density.status();
  EXPECT_GT(density->noise_fidelity(), 0.0);
  EXPECT_LT(density->noise_fidelity(), 1.0);
  // Trajectory path (7 qubits).
  auto trajectory =
      SolveWith("noisy:depol@0.05:qaoa", TrajectoryPathQubo(), options);
  ASSERT_TRUE(trajectory.ok()) << trajectory.status();
  EXPECT_GT(trajectory->noise_fidelity(), 0.0);
  EXPECT_LT(trajectory->noise_fidelity(), 1.0);
  // Grover's classical-corruption fallback.
  auto grover = SolveWith("noisy:depol@0.05:grover_min", SmallBatch(1)[0],
                          options);
  ASSERT_TRUE(grover.ok()) << grover.status();
  EXPECT_GT(grover->noise_fidelity(), 0.0);
  EXPECT_LT(grover->noise_fidelity(), 1.0);
  // Noiseless solves report a fidelity of exactly 1.
  auto clean = SolveWith("qaoa", SmallBatch(1)[0], options);
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_EQ(clean->noise_fidelity(), 1.0);
}

// -- Composition -------------------------------------------------------------

TEST(NoisySolverTest, ComposesWithRaceAndEmbeddedFamilies) {
  const Qubo q = SmallBatch(1)[0];
  const SolverOptions options = FastOptions(13);
  // A noisy bridge can race a classical backend.
  auto race = SolveWith("race:noisy:depol@0.01:qaoa+simulated_annealing", q,
                        options);
  ASSERT_TRUE(race.ok()) << race.status();
  EXPECT_FALSE(race->empty());
  // And a noisy wrapper can sit on top of an embedded gate-based base.
  auto embedded = SolveWith("noisy:depol@0.01:embedded:qaoa:chimera:1x1x4",
                            q, options);
  ASSERT_TRUE(embedded.ok()) << embedded.status();
  EXPECT_FALSE(embedded->empty());
}

}  // namespace
}  // namespace anneal
}  // namespace qdm
