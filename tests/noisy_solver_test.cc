// The registry-visible noisy backends ("noisy:<model>:<base>",
// docs/noise.md): default registration, dynamic prefix resolution, the full
// error taxonomy with exact messages, zero-rate bit-identity against every
// registered backend, bit-identical batch dispatch across thread counts and
// channel families, scalar/SIMD kernel parity on the trajectory path, the
// noise_fidelity metric, composition with the race:* and embedded:*
// families, and a golden table pinning the exact density path bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "qdm/algo/noisy_sampling.h"
#include "qdm/anneal/noise_spec.h"
#include "qdm/anneal/noisy_solver.h"
#include "qdm/anneal/solver.h"
#include "qdm/circuit/circuit.h"
#include "qdm/common/rng.h"
#include "qdm/service/solver_service.h"
#include "qdm/sim/density_matrix.h"
#include "qdm/sim/noise.h"
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

// -- Golden table: the exact density path ------------------------------------
//
// Recorded while EvolveDensityMatrix still multiplied dense 2^n x 2^n
// unitaries and embedded Kraus operators; the 2n-qubit statevector layout
// must reproduce every bit. A reordered sum or a moved Rng draw shows up as a
// different fidelity bit pattern or sample.

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// A dense QUBO over `n` variables with coefficients drawn from Rng(seed).
Qubo SeededQubo(int n, uint64_t seed) {
  Rng rng(seed);
  Qubo q(n);
  for (int i = 0; i < n; ++i) q.AddLinear(i, rng.Uniform(-1.0, 1.0));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      q.AddQuadratic(i, j, rng.Uniform(-1.0, 1.0));
    }
  }
  return q;
}

/// One solve of SeededQubo(num_variables, 40 + num_variables) at
/// FastOptions(5) with 8 reads: the noise_fidelity bits and every sample's
/// assignment, in SampleSet order.
struct NoisyGolden {
  const char* solver;
  int num_variables;
  uint64_t fidelity_bits;
  const char* samples;
};

constexpr NoisyGolden kNoisyGolden[] = {
    {"noisy:depol@0.01:qaoa", 4, 0x3feb0e2bc59517b9ull,
     "1110 1110 1110 1110 0110 0110 0010 0010"},
    {"noisy:depol@0.01:vqe", 4, 0x3fed2806dfefdc44ull,
     "1110 1110 1110 1110 1110 1110 1110 1110"},
    {"noisy:pauli@0.01,0.02,0.03:qaoa", 4, 0x3fd7569212ed7503ull,
     "1110 1110 0110 0110 1100 1100 0101 0001"},
    {"noisy:damp@0.05:qaoa", 4, 0x3fe6583f81e854c3ull,
     "1110 1110 1110 0110 0110 0110 1100 1100"},
    {"noisy:phase@0.05:qaoa", 4, 0x3fe84431a81ae48bull,
     "1110 1110 1110 1110 0110 0110 0010 0010"},
    {"noisy:readout@0.05:qaoa", 4, 0x3feffffffffffff6ull,
     "1110 1110 0110 0110 0110 1010 0010 1111"},
    {"noisy:depol@0.01:qaoa", 6, 0x3fe6b10bb4dc9271ull,
     "101101 001101 001101 011101 111101 011100 111100 100011"},
    {"noisy:pauli@0.01,0.02,0.03:qaoa", 6, 0x3fc2129d2c53c170ull,
     "001101 011101 011100 101100 000101 100101 000011 110011"},
    {"noisy:damp@0.05:qaoa", 6, 0x3fdf66e5cc645411ull,
     "001101 001101 011101 011101 101001 000101 010100 100100"},
    {"noisy:phase@0.05:qaoa", 6, 0x3fe2337a74f1d1adull,
     "101101 001101 001101 011101 111101 011100 011100 010011"},
    {"noisy:readout@0.05:qaoa", 6, 0x3feffffffffffff8ull,
     "001101 001111 011101 111101 111101 011100 101001 010010"},
};

TEST(NoisySolverGoldenTest, DensityPathMatchesTheRecordedBits) {
  SolverOptions options = FastOptions(5);
  options.num_reads = 8;
  for (const NoisyGolden& golden : kNoisyGolden) {
    const int n = golden.num_variables;
    auto set = SolveWith(golden.solver, SeededQubo(n, 40 + n), options);
    ASSERT_TRUE(set.ok()) << golden.solver << ": " << set.status();
    std::string samples;
    for (const Sample& sample : set->samples()) {
      if (!samples.empty()) samples += ' ';
      for (int bit : sample.assignment) samples += bit ? '1' : '0';
    }
    EXPECT_EQ(Bits(set->noise_fidelity()), golden.fidelity_bits)
        << golden.solver << " on " << n << " variables";
    EXPECT_EQ(samples, golden.samples)
        << golden.solver << " on " << n << " variables";
  }
}

/// Every gate kind the simulator knows, on `n` >= 3 qubits.
circuit::Circuit EveryGateKindCircuit(int n) {
  circuit::Circuit c(n);
  for (int q = 0; q < n; ++q) c.H(q).RY(q, 0.3 + 0.1 * q);
  c.I(0).X(1).Y(2).Z(0).S(1).Sdg(2).T(0).Tdg(1).RX(2, 0.7).RZ(0, -0.4);
  c.Phase(1, 0.9).U3(2, 0.5, -0.3, 1.1);
  for (int q = 0; q + 1 < n; ++q) c.CX(q, q + 1).RZZ(q + 1, q, 0.6 - 0.1 * q);
  c.CY(0, 2).CZ(2, 1).Swap(0, n - 1).CRZ(n - 1, 1, 0.8).CPhase(1, 0, -0.5);
  c.CCX(0, 1, 2).CSwap(2, 0, 1);
  return c;
}

/// FNV-1a over the real and imaginary bits of every entry, row-major, with
/// -0.0 folded to +0.0 (the layouts may differ in the sign of an exact zero).
uint64_t EntryDigest(const sim::DensityMatrix& rho) {
  const linalg::Matrix m = rho.matrix();
  uint64_t hash = 0xcbf29ce484222325ull;
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t c = 0; c < m.cols(); ++c) {
      for (const double part : {m(r, c).real(), m(r, c).imag()}) {
        const uint64_t bits = Bits(part == 0.0 ? 0.0 : part);
        for (int byte = 0; byte < 8; ++byte) {
          hash ^= (bits >> (8 * byte)) & 0xff;
          hash *= 0x100000001b3ull;
        }
      }
    }
  }
  return hash;
}

TEST(NoisySolverGoldenTest, EvolveDensityMatrixMatchesTheRecordedDigest) {
  sim::NoiseModel model;
  model.depolarizing_1q = 0.02;
  model.depolarizing_2q = 0.05;
  model.pauli_px = 0.01;
  model.pauli_py = 0.02;
  model.pauli_pz = 0.03;
  model.amplitude_damping = 0.04;
  model.phase_damping = 0.06;
  const std::map<int, uint64_t> expected = {{3, 0xbf6a9f6b4474f0d8ull},
                                            {6, 0x99b29c4dcc6d8679ull}};
  for (const auto& [n, digest] : expected) {
    EXPECT_EQ(
        EntryDigest(sim::EvolveDensityMatrix(EveryGateKindCircuit(n), model)),
        digest)
        << n << " qubits";
  }
}

}  // namespace
}  // namespace anneal
}  // namespace qdm
