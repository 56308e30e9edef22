// Pins the annealing-family backends (simulated annealing, parallel
// tempering, tabu search) bit for bit, through their registry names. The
// tabu assignments were recorded before the samplers moved to a CSR
// adjacency with spin-mask flip deltas and before qdm::Rng moved to the
// in-tree MT19937-64. The simulated annealing and tempering rows were
// re-recorded when each of their reads moved to its own Rng stream, and
// every energy is Qubo::Energy of its assignment (one energy per
// assignment, whatever the chain accumulated). A moved RNG draw, a
// reordered sum or a changed tie-break shows up here as a different
// assignment or energy bit pattern.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>

#include "qdm/anneal/qubo.h"
#include "qdm/anneal/sampler.h"
#include "qdm/anneal/simulated_annealing.h"
#include "qdm/anneal/solver.h"
#include "qdm/common/rng.h"
#include "qdm/common/status.h"
#include "qdm/qopt/mqo.h"
#include "qdm/qopt/txn_scheduling.h"

namespace qdm {
namespace anneal {
namespace {

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

std::string AssignmentString(const Assignment& x) {
  std::string out;
  for (int bit : x) out += bit ? '1' : '0';
  return out;
}

// Integer coefficients: 6 transactions x 5 slots = 30 variables.
Qubo TxnInstance() {
  Rng rng(5);
  return qopt::TxnScheduleToQubo(qopt::GenerateTxnSchedule(6, 10, 2, 0, &rng));
}

// Real coefficients: 5 queries x 3 plans = 15 variables.
Qubo MqoInstance() {
  Rng rng(6);
  return qopt::MqoToQubo(qopt::GenerateMqoProblem(5, 3, 0.4, &rng));
}

/// The registry name and knobs each recorded run used: sa 3 reads, pt 2
/// reads, tabu 3 reads, all drawing from `rng` (sa and pt one seed per
/// read, tabu every draw).
struct GoldenRun {
  const char* solver;
  SolverOptions options;
};

GoldenRun RunFor(const std::string& sampler, Rng* rng) {
  GoldenRun run{"tabu_search", {}};
  run.options.num_reads = 3;
  run.options.rng = rng;
  if (sampler == "sa") {
    run.solver = "simulated_annealing";
    run.options.num_sweeps = 60;
  } else if (sampler == "pt") {
    run.solver = "parallel_tempering";
    run.options.num_reads = 2;
    run.options.num_sweeps = 25;
    run.options.num_replicas = 4;
    run.options.swap_interval = 3;
  } else {
    run.options.max_iterations = 80;
  }
  return run;
}

struct GoldenSample {
  const char* run;  // "<sampler> <instance> <seed>"
  const char* assignment;
  uint64_t energy_bits;
};

// SampleSets in order: instance (txn, mqo), seed (11, 12), sampler (sa 3
// reads, pt 2 reads, tabu 3 reads), samples by ascending energy.
constexpr GoldenSample kGolden[] = {
    {"sa txn 11", "001001000000010100000100000001", 0x4044800000000000ull},
    {"sa txn 11", "000010100000010000101000010000", 0x4045000000000000ull},
    {"sa txn 11", "000010001000010000010001000100", 0x405c000000000000ull},
    {"pt txn 11", "000010001000010000010010000001", 0x4049800000000000ull},
    {"pt txn 11", "100000001000001000100001001000", 0x4053000000000000ull},
    {"tabu txn 11", "001000001010000100000100010000", 0x4018000000000000ull},
    {"tabu txn 11", "100000010000100010000100010000", 0x4018000000000000ull},
    {"tabu txn 11", "010000001010000100000010010000", 0x4018000000000000ull},
    {"sa txn 12", "100000000110000010000010010000", 0x4043000000000000ull},
    {"sa txn 12", "000011000000010100000010000010", 0x4045800000000000ull},
    {"sa txn 12", "001000001010000100001000000010", 0x4051800000000000ull},
    {"pt txn 12", "000100000100010100000100000001", 0x4053400000000000ull},
    {"pt txn 12", "001000000100001001000000100100", 0x405bc00000000000ull},
    {"tabu txn 12", "001001000010000010000100000100", 0x4018000000000000ull},
    {"tabu txn 12", "100000010000100010000100010000", 0x4018000000000000ull},
    {"tabu txn 12", "001000100001000100001000000100", 0x4018000000000000ull},
    {"sa mqo 11", "100010001010010", 0x40634d952b7457b8ull},
    {"sa mqo 11", "100010001010001", 0x4067b62db933f2b0ull},
    {"sa mqo 11", "100010001100010", 0x40693438388b6864ull},
    {"pt mqo 11", "100010001010010", 0x40634d952b7457b8ull},
    {"pt mqo 11", "010010010010010", 0x4064f5c624a56033ull},
    {"tabu mqo 11", "010001001010010", 0x4060b1997f1efc7aull},
    {"tabu mqo 11", "010001001010010", 0x4060b1997f1efc7aull},
    {"tabu mqo 11", "010001001010010", 0x4060b1997f1efc7aull},
    {"sa mqo 12", "100001001010010", 0x406312f4bd6d2a9full},
    {"sa mqo 12", "100001001010100", 0x4064d3559e5c7396ull},
    {"sa mqo 12", "010001010100010", 0x40660f2b120e215eull},
    {"pt mqo 12", "010001001010010", 0x4060b1997f1efc7aull},
    {"pt mqo 12", "100010001100010", 0x40693438388b6864ull},
    {"tabu mqo 12", "010001001010010", 0x4060b1997f1efc7aull},
    {"tabu mqo 12", "010001001010010", 0x4060b1997f1efc7aull},
    {"tabu mqo 12", "010010001010010", 0x4061a7c1ec8c0807ull},
};

TEST(SamplerGoldenTest, SampleSetsMatchTheRecordedBits) {
  size_t next = 0;
  for (const std::string instance : {"txn", "mqo"}) {
    const Qubo qubo = instance == "txn" ? TxnInstance() : MqoInstance();
    for (const int seed : {11, 12}) {
      const std::string suffix = " " + instance + " " + std::to_string(seed);
      for (const std::string sampler : {"sa", "pt", "tabu"}) {
        const std::string run = sampler + suffix;
        Rng rng(seed);
        const GoldenRun golden_run = RunFor(sampler, &rng);
        const Result<SampleSet> set =
            SolveWith(golden_run.solver, qubo, golden_run.options);
        ASSERT_TRUE(set.ok()) << run << ": " << set.status();
        for (const Sample& sample : set->samples()) {
          ASSERT_LT(next, std::size(kGolden)) << run;
          const GoldenSample& golden = kGolden[next++];
          EXPECT_EQ(run, golden.run);
          EXPECT_EQ(AssignmentString(sample.assignment), golden.assignment)
              << run;
          EXPECT_EQ(Bits(sample.energy), golden.energy_bits) << run;
          EXPECT_EQ(sample.chain_break_fraction, 0.0) << run;
        }
      }
    }
  }
  EXPECT_EQ(next, std::size(kGolden));
}

// Both FlipDelta overloads, on 200 random states of `qubo`.
void ExpectMaskedDeltaMatchesReference(const Qubo& qubo, uint64_t seed) {
  const QuboAdjacency adj(qubo);
  const int n = adj.num_variables();
  Rng rng(seed);
  for (int trial = 0; trial < 200; ++trial) {
    Assignment x(n);
    for (int i = 0; i < n; ++i) x[i] = rng.Bernoulli(0.5) ? 1 : 0;
    SpinMasks spins(n);
    for (int i = 0; i < n; ++i) spins[i] = SpinMask(x[i]);
    ASSERT_EQ(ToAssignment(spins), x);
    for (int i = 0; i < n; ++i) {
      const uint64_t masked = Bits(adj.FlipDelta(spins.data(), i));
      ASSERT_EQ(masked, Bits(adj.FlipDelta(x, i)))
          << "trial " << trial << ", variable " << i;
    }
  }
}

TEST(SamplerGoldenTest, MaskedDeltaMatchesReferenceBitForBit) {
  ExpectMaskedDeltaMatchesReference(TxnInstance(), 1);
  ExpectMaskedDeltaMatchesReference(MqoInstance(), 2);

  // Infinite couplings: fields reach +-inf, and inf + -inf is NaN.
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(3);
  Qubo qubo(12);
  for (int i = 0; i < 12; ++i) qubo.AddLinear(i, rng.Uniform(-1, 1));
  for (int i = 0; i < 12; ++i) {
    for (int j = i + 1; j < 12; ++j) {
      const double u = rng.Uniform();
      qubo.AddQuadratic(i, j, u < 0.2 ? inf : u < 0.4 ? -inf : u - 0.7);
    }
  }
  ExpectMaskedDeltaMatchesReference(qubo, 4);
}

}  // namespace
}  // namespace anneal
}  // namespace qdm
