// Pins the annealing-family samplers (simulated annealing, parallel
// tempering, tabu search) bit for bit. The golden samples below were
// recorded before the samplers moved to a CSR adjacency with spin-mask
// flip deltas and before qdm::Rng moved to the in-tree MT19937-64: a moved
// RNG draw, a reordered sum or a changed tie-break shows up here as a
// different assignment or energy bit pattern.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <string>

#include "qdm/anneal/parallel_tempering.h"
#include "qdm/anneal/qubo.h"
#include "qdm/anneal/sampler.h"
#include "qdm/anneal/simulated_annealing.h"
#include "qdm/anneal/tabu_search.h"
#include "qdm/common/rng.h"
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

std::unique_ptr<Sampler> MakeSampler(const std::string& name) {
  if (name == "sa") {
    AnnealSchedule schedule;
    schedule.num_sweeps = 60;
    return std::make_unique<SimulatedAnnealer>(schedule);
  }
  if (name == "pt") {
    ParallelTempering::Options options;
    options.num_replicas = 4;
    options.num_sweeps = 25;
    options.swap_interval = 3;
    return std::make_unique<ParallelTempering>(options);
  }
  TabuSearch::Options options;
  options.max_iterations = 80;
  return std::make_unique<TabuSearch>(options);
}

struct GoldenSample {
  const char* run;  // "<sampler> <instance> <seed>"
  const char* assignment;
  uint64_t energy_bits;
};

// SampleSets in order: instance (txn, mqo), seed (11, 12), sampler (sa 3
// reads, pt 2 reads, tabu 3 reads), samples by ascending energy.
constexpr GoldenSample kGolden[] = {
    {"sa txn 11", "010000000100001000101000000010", 0x402e000000000000ull},
    {"sa txn 11", "100000010000010000101000010000", 0x4051800000000000ull},
    {"sa txn 11", "000010100001000000010010000100", 0x4053000000000000ull},
    {"pt txn 11", "010000000100001000100010001000", 0x402e000000000000ull},
    {"pt txn 11", "001000000100010000100100000010", 0x4030000000000000ull},
    {"tabu txn 11", "001000001010000100000100010000", 0x4018000000000000ull},
    {"tabu txn 11", "100000010000100010000100010000", 0x4018000000000000ull},
    {"tabu txn 11", "010000001010000100000010010000", 0x4018000000000000ull},
    {"sa txn 12", "000010010000010000100000110000", 0x4047800000000000ull},
    {"sa txn 12", "001000001000001000101000000001", 0x4047800000000000ull},
    {"sa txn 12", "000100001000001000010100001000", 0x4053800000000000ull},
    {"pt txn 12", "100000001000010000100000100100", 0x4047000000000000ull},
    {"pt txn 12", "000101000000100000100100010000", 0x4051c00000000000ull},
    {"tabu txn 12", "001001000010000010000100000100", 0x4018000000000000ull},
    {"tabu txn 12", "100000010000100010000100010000", 0x4018000000000000ull},
    {"tabu txn 12", "001000100001000100001000000100", 0x4018000000000000ull},
    {"sa mqo 11", "010001010100010", 0x40660f2b120e2160ull},
    {"sa mqo 11", "010001100010001", 0x40699545ec4aa5f6ull},
    {"sa mqo 11", "100010100100100", 0x407113c4ff1a5f04ull},
    {"pt mqo 11", "010010001010010", 0x4061a7c1ec8c0812ull},
    {"pt mqo 11", "100001010100010", 0x406aad5f4855f886ull},
    {"tabu mqo 11", "010001001010010", 0x4060b1997f1efc78ull},
    {"tabu mqo 11", "010001001010010", 0x4060b1997f1efc7full},
    {"tabu mqo 11", "010001001010010", 0x4060b1997f1efc8aull},
    {"sa mqo 12", "010001001010100", 0x40627fc7516f17e8ull},
    {"sa mqo 12", "001100100100010", 0x407263ad1f6dd3dfull},
    {"sa mqo 12", "001100010100001", 0x40747c858b87a747ull},
    {"pt mqo 12", "010001001010100", 0x40627fc7516f17ceull},
    {"pt mqo 12", "100001001010100", 0x4064d3559e5c73a5ull},
    {"tabu mqo 12", "010001001010010", 0x4060b1997f1efc70ull},
    {"tabu mqo 12", "010001001010010", 0x4060b1997f1efc80ull},
    {"tabu mqo 12", "010010001010010", 0x4061a7c1ec8c081cull},
};

TEST(SamplerGoldenTest, SampleSetsMatchTheRecordedBits) {
  size_t next = 0;
  for (const std::string instance : {"txn", "mqo"}) {
    const Qubo qubo = instance == "txn" ? TxnInstance() : MqoInstance();
    for (const int seed : {11, 12}) {
      const std::string suffix = " " + instance + " " + std::to_string(seed);
      for (const std::string sampler : {"sa", "pt", "tabu"}) {
        const std::string run = sampler + suffix;
        const int reads = sampler == "pt" ? 2 : 3;
        const std::unique_ptr<Sampler> solver = MakeSampler(sampler);
        Rng rng(seed);
        const SampleSet set = solver->SampleQubo(qubo, reads, &rng);
        for (const Sample& sample : set.samples()) {
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
