#include "qdm/algo/vqe.h"

#include <cmath>
#include <optional>

#include "qdm/algo/noisy_sampling.h"
#include "qdm/algo/qaoa.h"
#include "qdm/common/check.h"

namespace qdm {
namespace algo {

namespace {

circuit::Circuit BuildAnsatz(int num_qubits, int layers) {
  circuit::Circuit c(num_qubits);
  int param = 0;
  for (int q = 0; q < num_qubits; ++q) c.SymbolicRY(q, param++);
  for (int l = 0; l < layers; ++l) {
    for (int q = 0; q + 1 < num_qubits; ++q) c.CZ(q, q + 1);
    for (int q = 0; q < num_qubits; ++q) c.SymbolicRY(q, param++);
  }
  return c;
}

}  // namespace

Vqe::Vqe(const anneal::Qubo& qubo, int layers)
    : num_qubits_(qubo.num_variables()),
      layers_(layers),
      diagonal_(BuildDiagonal(qubo)),
      ansatz_(BuildAnsatz(qubo.num_variables(), layers)) {
  QDM_CHECK_GE(layers, 1);
}

sim::Statevector Vqe::StateForParameters(
    const std::vector<double>& thetas) const {
  QDM_CHECK_EQ(thetas.size(), static_cast<size_t>(num_parameters()));
  return sim::RunCircuit(ansatz_.BindParameters(thetas));
}

double Vqe::Expectation(const std::vector<double>& thetas) const {
  return StateForParameters(thetas).ExpectationDiagonal(diagonal_);
}

OptimizationResult Vqe::Optimize(Optimizer* optimizer, int restarts,
                                 Rng* rng) const {
  QDM_CHECK_GT(restarts, 0);
  OptimizationResult best;
  best.value = 1e300;
  Objective objective = [this](const std::vector<double>& p) {
    return Expectation(p);
  };
  for (int r = 0; r < restarts; ++r) {
    std::vector<double> initial(num_parameters());
    for (double& t : initial) t = rng->Uniform(-M_PI / 2, M_PI / 2);
    OptimizationResult run = optimizer->Minimize(objective, initial, rng);
    if (run.value < best.value) {
      run.evaluations += best.evaluations;
      best = run;
    } else {
      best.evaluations += run.evaluations;
    }
  }
  return best;
}

Result<anneal::SampleSet> VqeSampler::Solve(
    const anneal::Qubo& qubo, const anneal::SolverOptions& options) {
  QDM_RETURN_IF_ERROR(anneal::ValidateSolverOptions(options));
  QDM_RETURN_IF_ERROR(
      CheckFitsStateVector(qubo, options, kDefaultMaxQubits, "VQE"));
  std::optional<Rng> local;
  Rng* rng = anneal::ResolveSolverRng(options, &local);
  Vqe vqe(qubo, options.layers > 0 ? options.layers : kDefaultLayers);
  NelderMead optimizer;
  const OptimizationResult opt = vqe.Optimize(
      &optimizer, options.restarts > 0 ? options.restarts : kDefaultRestarts,
      rng);
  if (!options.noise.IsNoiseless()) {
    return SampleCircuitNoisy(vqe.ansatz().BindParameters(opt.parameters),
                              vqe.diagonal(), ToNoiseModel(options.noise),
                              options.num_reads, options);
  }
  const sim::Statevector sv = vqe.StateForParameters(opt.parameters);
  anneal::SampleSet set;
  for (int read = 0; read < options.num_reads; ++read) {
    AddBasisSample(&set, vqe.diagonal(), qubo.num_variables(),
                   sv.SampleBasisState(rng));
  }
  return set;
}

}  // namespace algo
}  // namespace qdm
