// Pins the read lanes to the one-read loops, bit for bit:
//
//   - QuboAdjacency::AnnealLanes and TabuLanes, at every lane count, leave
//     each lane's spins where a test-local copy of the one-read loop leaves
//     that read: a stream swapped between lanes, a draw moved or a lane
//     that moves after it stopped shows here even where the sorted
//     SampleSet could not tell;
//   - simulated_annealing with 1 to 4 reads (a group of one, a partial
//     group, a whole one), with one more read than pool threads and with
//     two groups' worth more, and tabu_search with 2 to 9 reads return the
//     same SampleSet under SimdMode::kAuto and kScalar, equal to the
//     reference loops run read by read, on integer, real-valued and
//     non-finite QUBOs, and leave the caller's Rng where the reference
//     leaves it.
//
// The reference loops share no code with the samplers' sweeps: each
// proposal sums its CSR row through the Assignment FlipDelta and every
// uphill one calls std::exp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "qdm/anneal/qubo.h"
#include "qdm/anneal/sampler.h"
#include "qdm/anneal/simulated_annealing.h"
#include "qdm/anneal/solver.h"
#include "qdm/common/rng.h"
#include "qdm/common/thread_pool.h"
#include "qdm/sim/statevector.h"

namespace qdm {
namespace anneal {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr int kLanes = QuboAdjacency::kLanes;

/// Sets the process-wide SIMD mode for one scope.
class ScopedSimdMode {
 public:
  explicit ScopedSimdMode(sim::SimdMode mode)
      : previous_(sim::Statevector::DefaultExecutionConfig()) {
    sim::ExecutionConfig config = previous_;
    config.simd = mode;
    sim::Statevector::SetDefaultExecutionConfig(config);
  }
  ~ScopedSimdMode() { sim::Statevector::SetDefaultExecutionConfig(previous_); }

 private:
  sim::ExecutionConfig previous_;
};

enum class Family { kInteger, kReal, kNonFinite };
constexpr const char* kFamilyNames[] = {"integer", "real", "non-finite"};
constexpr Family kFamilies[] = {Family::kInteger, Family::kReal,
                                Family::kNonFinite};

/// A seeded random QUBO on n variables, each pair coupled with probability
/// `density`: small integers (the exact-field path), reals in [-1, 1), or
/// reals with a fifth of the couplings +-inf and one linear term NaN, so
/// deltas are +-inf and NaN.
Qubo RandomQubo(Family family, int n, double density, uint64_t seed) {
  Rng rng(seed);
  const auto coefficient = [&](int range) {
    if (family == Family::kInteger) {
      return static_cast<double>(rng.UniformInt(-range, range));
    }
    const double u = rng.Uniform();
    if (family == Family::kNonFinite && u < 0.1) return kInf;
    if (family == Family::kNonFinite && u < 0.2) return -kInf;
    return rng.Uniform(-1, 1);
  };
  Qubo qubo(n);
  for (int i = 0; i < n; ++i) qubo.AddLinear(i, coefficient(12));
  if (family == Family::kNonFinite && n > 2) qubo.AddLinear(n / 2, kNaN);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(density)) qubo.AddQuadratic(i, j, coefficient(9));
    }
  }
  return qubo;
}

std::string Label(Family family, int n, const std::string& rest) {
  return std::string(kFamilyNames[static_cast<int>(family)]) +
         " n=" + std::to_string(n) + " " + rest;
}

/// simulated_annealing's schedule: `sweeps` inverse temperatures from
/// beta_min, each the one before times `ratio`.
struct Schedule {
  double beta_min;
  double ratio;
  int sweeps;
};

Schedule AnnealSchedule(const QuboAdjacency& adj,
                        const SolverOptions& options) {
  const auto [beta_min, beta_max] = BetaRange(adj, options);
  const int sweeps = options.num_sweeps;
  const double ratio =
      sweeps > 1 ? std::pow(beta_max / beta_min, 1.0 / (sweeps - 1)) : 1.0;
  return {beta_min, ratio, sweeps};
}

/// One simulated-annealing read on `rng`, as the one-read loop runs it.
Assignment ReferenceAnnealRead(const QuboAdjacency& adj,
                               const Schedule& schedule, Rng* rng) {
  Assignment x(adj.num_variables());
  for (auto& bit : x) bit = rng->Bernoulli(0.5) ? 1 : 0;
  double beta = schedule.beta_min;
  for (int sweep = 0; sweep < schedule.sweeps;
       ++sweep, beta *= schedule.ratio) {
    for (int i = 0; i < adj.num_variables(); ++i) {
      const double delta = adj.FlipDelta(x, i);
      if (delta <= 0.0 || rng->Uniform() < std::exp(-beta * delta)) {
        x[i] = 1 - x[i];
      }
    }
  }
  return x;
}

/// simulated_annealing, read by read: read r on an Rng seeded by the r-th
/// draw of `rng`.
SampleSet ReferenceAnneal(const Qubo& qubo, const SolverOptions& options,
                          Rng* rng) {
  const QuboAdjacency adj(qubo);
  const Schedule schedule = AnnealSchedule(adj, options);
  SampleSet result;
  for (int read = 0; read < options.num_reads; ++read) {
    Rng read_rng(rng->engine()());
    const Assignment x = ReferenceAnnealRead(adj, schedule, &read_rng);
    result.Add(Sample{x, qubo.Energy(x), 0.0});
  }
  return result;
}

/// One tabu read from `*x` at `energy`, as the one-read loop runs it; `*x`
/// ends at the best state visited. Returns the iteration the read stopped
/// at: max_iterations, or earlier when every move was tabu.
int ReferenceTabuRead(const QuboAdjacency& adj, int max_iterations, int tenure,
                      double energy, Assignment* x) {
  const int n = adj.num_variables();
  Assignment current = *x;
  double best_energy = energy;
  std::vector<int> tabu_until(n, -1);
  for (int iter = 0; iter < max_iterations; ++iter) {
    int chosen = -1;
    double chosen_delta = 0.0;
    for (int i = 0; i < n; ++i) {
      const double delta = adj.FlipDelta(current, i);
      const bool allowed =
          tabu_until[i] <= iter || energy + delta < best_energy;
      if (allowed && (chosen == -1 || delta < chosen_delta)) {
        chosen = i;
        chosen_delta = delta;
      }
    }
    if (chosen == -1) return iter;
    current[chosen] = 1 - current[chosen];
    energy += chosen_delta;
    tabu_until[chosen] = iter + std::min(tenure, max_iterations - iter);
    if (energy < best_energy) {
      best_energy = energy;
      *x = current;
    }
  }
  return max_iterations;
}

int TabuTenure(const QuboAdjacency& adj, const SolverOptions& options) {
  return options.tenure > 0 ? options.tenure
                            : std::min(20, adj.num_variables() / 4 + 1);
}

/// tabu_search, read by read, each start state drawn from `rng`. Adds each
/// read's stopping iteration to `stops` when given.
SampleSet ReferenceTabu(const Qubo& qubo, const SolverOptions& options,
                        Rng* rng, std::vector<int>* stops = nullptr) {
  const QuboAdjacency adj(qubo);
  SampleSet result;
  for (int read = 0; read < options.num_reads; ++read) {
    SpinMasks spins;
    const double energy = adj.RandomSpins(rng, &spins);
    Assignment x = ToAssignment(spins);
    const int stop = ReferenceTabuRead(adj, options.max_iterations,
                                       TabuTenure(adj, options), energy, &x);
    if (stops != nullptr) stops->push_back(stop);
    result.Add(Sample{x, qubo.Energy(x), 0.0});
  }
  return result;
}

TEST(ReadLanesTest, ReadLanesFollowTheResolvedTier) {
  EXPECT_EQ(QuboAdjacency::ReadLanes(),
            sim::Statevector::ResolvedSimdTier() == sim::simd::Tier::kAvx2);
  ScopedSimdMode scalar(sim::SimdMode::kScalar);
  EXPECT_FALSE(QuboAdjacency::ReadLanes());
}

TEST(ReadLanesTest, AnnealLanesLeaveEachLaneWhereItsReadEnds) {
  if (!QuboAdjacency::ReadLanes()) GTEST_SKIP() << "no avx2 tier";
  SolverOptions options;
  options.num_sweeps = 25;
  uint64_t seed = 100;
  for (const Family family : kFamilies) {
    for (const int n : {1, 2, 3, 7, 16, 33}) {
      for (const double density : {0.3, 1.0}) {
        const Qubo qubo = RandomQubo(family, n, density, ++seed);
        const QuboAdjacency adj(qubo);
        ASSERT_EQ(adj.exact_fields(), family == Family::kInteger);
        const Schedule schedule = AnnealSchedule(adj, options);
        for (int count = 1; count <= kLanes; ++count) {
          std::vector<Rng> rngs;
          for (int l = 0; l < count; ++l) rngs.emplace_back(seed * 10 + l);
          SpinMasks spins[kLanes];
          adj.AnnealLanes(count, rngs.data(), schedule.beta_min, schedule.ratio,
                          schedule.sweeps, spins);
          for (int l = 0; l < count; ++l) {
            Rng reference(seed * 10 + l);
            EXPECT_EQ(ToAssignment(spins[l]),
                      ReferenceAnnealRead(adj, schedule, &reference))
                << Label(family, n,
                         "density=" + std::to_string(density) + " lane " +
                             std::to_string(l) + " of " +
                             std::to_string(count));
          }
        }
      }
    }
  }
}

TEST(ReadLanesTest, TabuLanesLeaveEachLaneWhereItsReadEnds) {
  if (!QuboAdjacency::ReadLanes()) GTEST_SKIP() << "no avx2 tier";
  uint64_t seed = 200;
  for (const Family family : kFamilies) {
    for (const int n : {1, 2, 3, 7, 16, 33}) {
      // The default tenure, and n + 1, the shortest with which a read stops
      // once it has flipped every variable, unless a flip beats its best.
      for (const int tenure : {std::min(20, n / 4 + 1), n + 1}) {
        const Qubo qubo = RandomQubo(family, n, 0.5, ++seed);
        const QuboAdjacency adj(qubo);
        const int max_iterations = 3 * n + 5;
        for (int count = 1; count <= kLanes; ++count) {
          Rng rng(seed);
          SpinMasks spins[kLanes];
          double energies[kLanes];
          for (int l = 0; l < count; ++l) {
            energies[l] = adj.RandomSpins(&rng, &spins[l]);
          }
          std::vector<Assignment> expected;
          for (int l = 0; l < count; ++l) {
            expected.push_back(ToAssignment(spins[l]));
            ReferenceTabuRead(adj, max_iterations, tenure, energies[l],
                              &expected.back());
          }
          adj.TabuLanes(count, max_iterations, tenure, energies, spins);
          for (int l = 0; l < count; ++l) {
            EXPECT_EQ(ToAssignment(spins[l]), expected[l]) << Label(
                family, n,
                "tenure=" + std::to_string(tenure) + " lane " +
                    std::to_string(l) + " of " + std::to_string(count));
          }
        }
      }
    }
  }
}

TEST(ReadLanesTest, SimulatedAnnealingMatchesAtBothTiers) {
  const int threads = ThreadPool::Shared().num_threads();
  uint64_t seed = 300;
  for (const Family family : kFamilies) {
    for (const int n : {5, 24}) {
      const Qubo qubo = RandomQubo(family, n, 0.6, ++seed);
      // One group of each size up to four (one read runs the one-read
      // loop), one more read than pool threads, and two groups' worth more.
      for (const int num_reads : {1, 2, 3, 4, threads + 1, 2 * threads + 2}) {
        SolverOptions options;
        options.num_reads = num_reads;
        options.num_sweeps = 30;
        const std::string label =
            Label(family, n, std::to_string(num_reads) + " reads");
        Rng reference_rng(seed);
        const SampleSet expected =
            ReferenceAnneal(qubo, options, &reference_rng);
        // One seed per read, as the reference drew.
        const uint64_t next_draw = reference_rng.engine()();
        for (const sim::SimdMode mode :
             {sim::SimdMode::kAuto, sim::SimdMode::kScalar}) {
          ScopedSimdMode scoped(mode);
          Rng rng(seed);
          options.rng = &rng;
          const Result<SampleSet> set =
              SolveWith("simulated_annealing", qubo, options);
          ASSERT_TRUE(set.ok()) << label << ": " << set.status();
          EXPECT_TRUE(BitIdentical(*set, expected))
              << label
              << (mode == sim::SimdMode::kAuto ? ", auto" : ", scalar");
          EXPECT_EQ(rng.engine()(), next_draw) << label;
        }
      }
    }
  }
}

TEST(ReadLanesTest, TabuSearchMatchesAtBothTiers) {
  uint64_t seed = 400;
  bool stopped_early_beside_a_running_lane = false;
  for (const Family family : kFamilies) {
    for (const int n : {6, 18}) {
      const Qubo qubo = RandomQubo(family, n, 0.6, ++seed);
      for (const int num_reads : {2, 3, 4, 5, 9}) {
        // The default tenure, and tenures with which a read can run out of
        // moves.
        for (const int tenure : {0, n + 1, 2 * n}) {
          SolverOptions options;
          options.num_reads = num_reads;
          options.max_iterations = 3 * n + 5;
          options.tenure = tenure;
          const std::string label =
              Label(family, n,
                    std::to_string(num_reads) + " reads, tenure " +
                        std::to_string(tenure));
          Rng reference_rng(seed);
          std::vector<int> stops;
          const SampleSet expected =
              ReferenceTabu(qubo, options, &reference_rng, &stops);
          // The start states drew from the solve's Rng; the search draws
          // nothing.
          const uint64_t next_draw = reference_rng.engine()();
          for (int first = 0; first + 1 < num_reads; first += kLanes) {
            const auto group = stops.begin() + first;
            const auto end =
                stops.begin() + std::min(first + kLanes, num_reads);
            const int earliest = *std::min_element(group, end);
            const int latest = *std::max_element(group, end);
            if (earliest < options.max_iterations && latest > earliest) {
              stopped_early_beside_a_running_lane = true;
            }
          }
          for (const sim::SimdMode mode :
               {sim::SimdMode::kAuto, sim::SimdMode::kScalar}) {
            ScopedSimdMode scoped(mode);
            Rng rng(seed);
            options.rng = &rng;
            const Result<SampleSet> set =
                SolveWith("tabu_search", qubo, options);
            ASSERT_TRUE(set.ok()) << label << ": " << set.status();
            EXPECT_TRUE(BitIdentical(*set, expected))
                << label
                << (mode == sim::SimdMode::kAuto ? ", auto" : ", scalar");
            EXPECT_EQ(rng.engine()(), next_draw) << label;
          }
        }
      }
    }
  }
  // Some group had a read stop on an all-tabu move list while a read beside
  // it ran longer.
  EXPECT_TRUE(stopped_early_beside_a_running_lane);
}

}  // namespace
}  // namespace anneal
}  // namespace qdm
