#ifndef QDM_ALGO_OPTIMIZERS_H_
#define QDM_ALGO_OPTIMIZERS_H_

#include <functional>
#include <string>
#include <vector>

#include "qdm/common/rng.h"

namespace qdm {
namespace algo {

/// Objective for the classical outer loop of variational algorithms
/// (QAOA/VQE/VQC): maps a parameter vector to a scalar to minimize.
using Objective = std::function<double(const std::vector<double>&)>;

struct OptimizationResult {
  std::vector<double> parameters;
  double value = 0.0;
  int evaluations = 0;
};

/// Interface for derivative-free optimizers used by the hybrid
/// quantum-classical loop (paper Sec III-C(2)).
class Optimizer {
 public:
  virtual ~Optimizer() = default;
  virtual OptimizationResult Minimize(const Objective& f,
                                      std::vector<double> initial,
                                      Rng* rng) = 0;
  virtual std::string name() const = 0;
};

/// Nelder-Mead downhill simplex.
class NelderMead : public Optimizer {
 public:
  struct Options {
    int max_evaluations = 400;
    double initial_step = 0.5;
    double tolerance = 1e-8;
  };

  NelderMead() : options_() {}
  explicit NelderMead(Options options) : options_(options) {}

  OptimizationResult Minimize(const Objective& f, std::vector<double> initial,
                              Rng* rng) override;
  std::string name() const override { return "nelder_mead"; }

 private:
  Options options_;
};

/// Simultaneous Perturbation Stochastic Approximation: two evaluations per
/// step regardless of dimension; the standard optimizer for sampled (noisy)
/// variational objectives.
class Spsa : public Optimizer {
 public:
  struct Options {
    int iterations = 200;
    double a = 0.2;  // Step-size numerator.
    double c = 0.1;  // Perturbation size.
    double alpha = 0.602;
    double gamma = 0.101;
  };

  Spsa() : options_() {}
  explicit Spsa(Options options) : options_(options) {}

  OptimizationResult Minimize(const Objective& f, std::vector<double> initial,
                              Rng* rng) override;
  std::string name() const override { return "spsa"; }

 private:
  Options options_;
};

/// Cyclic coordinate descent with shrinking step size; simple and robust for
/// low-dimensional QAOA angle landscapes.
class CoordinateDescent : public Optimizer {
 public:
  struct Options {
    int max_rounds = 30;
    double initial_step = 0.4;
    double shrink = 0.7;
    double min_step = 1e-4;
  };

  CoordinateDescent() : options_() {}
  explicit CoordinateDescent(Options options) : options_(options) {}

  OptimizationResult Minimize(const Objective& f, std::vector<double> initial,
                              Rng* rng) override;
  std::string name() const override { return "coordinate_descent"; }

 private:
  Options options_;
};

}  // namespace algo
}  // namespace qdm

#endif  // QDM_ALGO_OPTIMIZERS_H_
