#ifndef QDM_ANNEAL_SIMULATED_ANNEALING_H_
#define QDM_ANNEAL_SIMULATED_ANNEALING_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "qdm/anneal/solver.h"

namespace qdm {
namespace anneal {

/// Metropolis simulated annealing over QUBO variables. This is the toolkit's
/// stand-in for the D-Wave quantum annealer: the *interface* (QUBO in,
/// low-energy samples out, quality improving with anneal length / num_reads)
/// matches the physical device; the dynamics are classical Metropolis.
/// Reads num_sweeps (each sweep proposes one flip per variable) and the
/// beta_min/beta_max ends of its geometric schedule (see BetaRange). On the
/// avx2 tier, a solve of two or more reads runs them in groups of four
/// (QuboAdjacency::ReadGroupSize, AnnealLanes), and only the groups fan out
/// on the shared pool: a group of four costs far less CPU than four
/// one-read loops, so a loaded pool serves more solves, with the same
/// samples.
class SimulatedAnnealer : public QuboSolver {
 public:
  static constexpr int kDefaultSweeps = 200;

  Result<SampleSet> Solve(const Qubo& qubo,
                          const SolverOptions& options) override;
  std::string name() const override { return "simulated_annealing"; }
};

/// Spins as the annealing-family samplers keep them: spins[i] is 0 for
/// x_i = 0 and all ones for x_i = 1, so a spin can mask a weight's bits.
using SpinMasks = std::vector<uint64_t>;

/// The mask of one 0/1 value.
inline uint64_t SpinMask(int bit) {
  return uint64_t{0} - static_cast<uint64_t>(bit);
}

/// The 0/1 assignment of a mask vector.
Assignment ToAssignment(const SpinMasks& spins);

/// The sample an annealing-family read returns for `spins`: its assignment
/// and qubo.Energy() of it, so every backend reports one energy for one
/// assignment, whatever the chain accumulated on the way.
Sample SampleOf(const Qubo& qubo, const SpinMasks& spins);

/// The width of MetropolisAccept's bracket around e^-y.
inline constexpr double kMetropolisMargin = 1e-9;

/// The Metropolis test for a move that costs y = beta * delta: exactly
/// `u < std::exp(-y)`, for every double y (±0, ±inf and NaN included) and
/// every u >= 0, but calling exp only when two cheap bounds leave the
/// answer open:
///  - reject when u * T5(y) >= 1 + 1e-9, where T5 is the degree-5 Taylor
///    sum of e^y. An odd-degree Taylor sum never exceeds e^y, for any real
///    y, so then u > e^-y;
///  - accept when u < 1 - y - 1e-9, because 1 - y <= e^-y.
/// The 1e-9 margin is far wider than the rounding of either test and exp's
/// own error, so every decision is the one exp would make.
inline bool MetropolisAccept(double u, double y) {
  const double t5 =
      1.0 +
      y * (1.0 + y * (0.5 + y * (1.0 / 6 + y * (1.0 / 24 + y * (1.0 / 120)))));
  if (u * t5 >= 1.0 + kMetropolisMargin) return false;
  if (u < 1.0 - y - kMetropolisMargin) return true;
  return u < std::exp(-y);
}

/// One Metropolis chain of the annealing-family samplers: its spins, its
/// energy and, when the adjacency has exact_fields(), every variable's
/// local field.
struct MetropolisChain {
  SpinMasks spins;
  /// fields[i] is the sum FlipDelta forms for variable i before it takes
  /// the sign of x_i; empty when the fields are not kept.
  std::vector<double> fields;
  double energy = 0.0;
};

/// Runs the `num_reads` reads of one annealing-family solve and returns their
/// samples, added in read order. Read r draws only from its own Rng, seeded
/// by the r-th 64-bit draw of `rng`: all num_reads seeds are drawn on the
/// calling thread before any read starts, so `rng` advances by exactly
/// num_reads draws. The reads are cut in read order into groups of
/// `group_size` (the last group may be shorter), and the groups fan out on
/// ThreadPool::Shared() through its caller-participating ForEach (a
/// saturated pool runs them in turn on the caller). No read sees another's
/// state, so the SampleSet is the same bits at every pool size and group
/// size: simulated_annealing passes ReadGroupSize's lane groups, and
/// parallel_tempering groups of one.
/// `reads(read_rngs, count, samples)` runs the `count` reads of one group,
/// read j on read_rngs[j] with its sample written to samples[j]; it is
/// called once per group, concurrently for different groups.
SampleSet SampleReads(int num_reads, int group_size, Rng* rng,
                      const std::function<void(Rng* read_rngs, int count,
                                               Sample* samples)>& reads);

/// Internal workhorse shared by the annealing-family samplers: the Qubo's
/// interaction graph in CSR form with O(deg) flip deltas. Variable i's
/// neighbours are neighbor_[start_[i]] .. neighbor_[start_[i + 1] - 1] in
/// ascending order, with the coupling to each in weight_.
class QuboAdjacency {
 public:
  explicit QuboAdjacency(const Qubo& qubo);

  int num_variables() const { return num_variables_; }
  double Energy(const Assignment& x) const;

  /// Draws a uniform random state into `spins` (one Bernoulli(0.5) per
  /// variable, in index order) and returns its energy.
  double RandomSpins(Rng* rng, SpinMasks* spins) const;

  /// Energy delta of flipping x[i].
  double FlipDelta(const Assignment& x, int i) const;

  /// True when every coefficient is a finite integer and every variable's
  /// |linear| + sum of |weight| is at most 2^53. Every partial sum
  /// FlipDelta forms is then an integer of at most 2^53 in magnitude, so
  /// exact: a local field kept per variable and moved by +-weight when a
  /// neighbour flips is the same double as the CSR sum.
  bool exact_fields() const { return exact_fields_; }

  /// Starts `chain` at RandomSpins' state and energy (the same draws), with
  /// its local fields when exact_fields().
  void StartChain(Rng* rng, MetropolisChain* chain) const;

  /// One Metropolis sweep of `chain` at inverse temperature `beta`: a flip
  /// of each variable in index order, accepted when its delta is <= 0 or
  /// MetropolisAccept(rng->Uniform(), beta * delta) holds. Only uphill and
  /// NaN deltas draw. A chain with fields takes each delta from its field
  /// in O(1) and updates the neighbours' fields on accept; one without
  /// sums the CSR row. Both give the same deltas bit for bit.
  void MetropolisSweep(double beta, Rng* rng, MetropolisChain* chain) const;

  /// The most reads one lane group runs at once: one per 64-bit lane of a
  /// 256-bit register.
  static constexpr int kLanes = 4;

  /// True when AnnealLanes and TabuLanes can run: the build compiled their
  /// AVX2 code and the resolved SIMD tier
  /// (sim::Statevector::ResolvedSimdTier) is avx2. SimdMode::kScalar, a CPU
  /// without AVX2 and -DQDM_ENABLE_SIMD=OFF builds make it false.
  static bool ReadLanes();

  /// How many reads simulated_annealing and tabu_search run as one group:
  /// kLanes when ReadLanes() and the solve has two or more reads, else 1
  /// (the one-read loop). It reads no pool size or load: at equal bits,
  /// lanes cost less CPU per read whether the pool is idle or busy.
  static int ReadGroupSize(int num_reads);

  /// Anneals `count` reads (1 to kLanes) at once, read l on rngs[l], and
  /// leaves each read's final spins in spins[l]. The `sweeps` inverse
  /// temperatures are beta_min, then each the one before times `ratio`.
  /// Each lane repeats one read's StartChain and its MetropolisSweep at
  /// each of them operation for operation (the same draws, deltas, fields
  /// and MetropolisAccept decisions), with the lanes' spins and fields
  /// interleaved by variable so that each CSR row serves every lane in
  /// 256-bit operations. A lane draws its uniforms into a buffer ahead of
  /// use, a block at a time (Rng::FillUniformAvx2, the same values as its
  /// Uniform() calls), so rngs[l] ends past the draws the read consumed.
  /// Needs ReadLanes().
  void AnnealLanes(int count, Rng* rngs, double beta_min, double ratio,
                   int sweeps, SpinMasks* spins) const;

  /// Tabu search (TabuSearch) on `count` reads (1 to kLanes) at once: read
  /// l starts at spins[l], whose energy is energies[l], and spins[l] ends
  /// at the best state the read visited. Each lane repeats one read's
  /// iterations operation for operation (the same CSR deltas and the first
  /// strictly smallest allowed one), and stops on its own when every move
  /// it has is tabu. Draws nothing. Needs ReadLanes().
  void TabuLanes(int count, int max_iterations, int tenure,
                 const double* energies, SpinMasks* spins) const;

  /// The same delta over spin masks, with no data-dependent branch: each
  /// neighbour adds bits(weight) & mask, i.e. its weight or +0.0, in the
  /// same order as the overload above. A Qubo's linear coefficients are
  /// never -0.0 (they are sums seeded with +0.0), so neither is any partial
  /// sum, and s + (+0.0) == s for all of them: both overloads return the
  /// same double bit for bit, for any IEEE weights, ±inf and NaN included.
  double FlipDelta(const uint64_t* spins, int i) const {
    double field = linear_[i];
    for (int k = start_[i]; k < start_[i + 1]; ++k) {
      field += FromBits(Bits(weight_[k]) & spins[neighbor_[k]]);
    }
    return Signed(field, spins[i]);
  }

  double max_abs_coefficient() const { return max_abs_coefficient_; }
  /// Smallest nonzero |coefficient|.
  double min_abs_coefficient() const { return min_abs_coefficient_; }

 private:
  static constexpr uint64_t kSignBit = uint64_t{1} << 63;

  static uint64_t Bits(double value) {
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
  }
  static double FromBits(uint64_t bits) {
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  }
  /// `field` negated when `spin` is x = 1, as -field is: the sign bit flips.
  static double Signed(double field, uint64_t spin) {
    return FromBits(Bits(field) ^ (spin & kSignBit));
  }

  int num_variables_;
  bool exact_fields_ = true;
  double offset_;
  double max_abs_coefficient_ = 0.0;
  double min_abs_coefficient_ = 0.0;
  std::vector<double> linear_;
  std::vector<int> start_;
  std::vector<int> neighbor_;
  std::vector<double> weight_;
};

/// The (beta_min, beta_max) inverse-temperature ends of the annealing
/// family: the options' pair when set, otherwise auto-scaled from the
/// problem's coefficient range, with a hot start that accepts nearly every
/// move and a cold end that freezes the smallest excitation.
std::pair<double, double> BetaRange(const QuboAdjacency& adj,
                                    const SolverOptions& options);

}  // namespace anneal
}  // namespace qdm

#endif  // QDM_ANNEAL_SIMULATED_ANNEALING_H_
