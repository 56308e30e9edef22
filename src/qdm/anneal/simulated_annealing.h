#ifndef QDM_ANNEAL_SIMULATED_ANNEALING_H_
#define QDM_ANNEAL_SIMULATED_ANNEALING_H_

#include <cstdint>
#include <cstring>
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
/// beta_min/beta_max ends of its geometric schedule (see BetaRange).
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
    // Negated when x_i = 1, as -field is: the sign bit flips.
    return FromBits(Bits(field) ^ (spins[i] & kSignBit));
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

  int num_variables_;
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
