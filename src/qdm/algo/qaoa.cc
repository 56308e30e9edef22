#include "qdm/algo/qaoa.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "qdm/algo/noisy_sampling.h"
#include "qdm/common/check.h"
#include "qdm/common/strings.h"

namespace qdm {
namespace algo {

std::vector<double> BuildDiagonal(const anneal::Qubo& qubo) {
  const int n = qubo.num_variables();
  QDM_CHECK_LE(n, kDiagonalQubitCap) << "diagonal would exceed memory budget";
  const uint64_t dim = uint64_t{1} << n;
  std::vector<double> diag(dim, qubo.offset());
  for (int i = 0; i < n; ++i) {
    const double a = qubo.linear(i);
    if (a == 0.0) continue;
    const uint64_t bit = uint64_t{1} << i;
    for (uint64_t z = 0; z < dim; ++z) {
      if (z & bit) diag[z] += a;
    }
  }
  for (const auto& [key, w] : qubo.quadratic_terms()) {
    if (w == 0.0) continue;
    const uint64_t mask =
        (uint64_t{1} << key.first) | (uint64_t{1} << key.second);
    for (uint64_t z = 0; z < dim; ++z) {
      if ((z & mask) == mask) diag[z] += w;
    }
  }
  return diag;
}

Status CheckFitsStateVector(const anneal::Qubo& qubo,
                            const anneal::SolverOptions& options,
                            int default_max_qubits, const char* what) {
  const int max_qubits =
      std::min(options.max_qubits > 0 ? options.max_qubits : default_max_qubits,
               kDiagonalQubitCap);
  if (qubo.num_variables() > max_qubits) {
    return Status::InvalidArgument(
        StrFormat("%s simulates a 2^n state vector; %d variables exceed the "
                  "%d-qubit limit",
                  what, qubo.num_variables(), max_qubits));
  }
  return Status::Ok();
}

Qaoa::Qaoa(const anneal::Qubo& qubo, int layers)
    : num_qubits_(qubo.num_variables()),
      layers_(layers),
      ising_(anneal::QuboToIsing(qubo)),
      diagonal_(BuildDiagonal(qubo)) {
  QDM_CHECK_GT(layers, 0);
}

sim::Statevector Qaoa::StateForParameters(
    const std::vector<double>& params) const {
  QDM_CHECK_EQ(params.size(), static_cast<size_t>(num_parameters()));
  sim::Statevector sv(num_qubits_);
  const linalg::Matrix h =
      circuit::SingleQubitMatrix(circuit::GateKind::kH, {});
  for (int q = 0; q < num_qubits_; ++q) sv.Apply1Q(h, q);

  for (int l = 0; l < layers_; ++l) {
    const double gamma = params[l];
    const double beta = params[layers_ + l];
    sv.ApplyDiagonalPhase(diagonal_, -gamma);
    const linalg::Matrix rx =
        circuit::SingleQubitMatrix(circuit::GateKind::kRX, {2 * beta});
    for (int q = 0; q < num_qubits_; ++q) sv.Apply1Q(rx, q);
  }
  return sv;
}

double Qaoa::Expectation(const std::vector<double>& params) const {
  return StateForParameters(params).ExpectationDiagonal(diagonal_);
}

circuit::Circuit Qaoa::BuildCircuit(const std::vector<double>& params) const {
  QDM_CHECK_EQ(params.size(), static_cast<size_t>(num_parameters()));
  circuit::Circuit c(num_qubits_);
  for (int q = 0; q < num_qubits_; ++q) c.H(q);

  for (int l = 0; l < layers_; ++l) {
    const double gamma = params[l];
    const double beta = params[layers_ + l];
    // exp(-i gamma C) in Ising form:
    //   C = offset + sum h_i s_i + sum J_ij s_i s_j
    // with s = 2x - 1. RZ(theta) applies phase e^{i theta/2 s}; we need
    // e^{-i gamma h s}, hence theta = -2 gamma h. RZZ(theta) applies
    // e^{-i theta/2 s_i s_j}; we need e^{-i gamma J s_i s_j}:
    // theta = 2 gamma J.
    // The constant offset contributes only a global phase and is dropped.
    for (int i = 0; i < num_qubits_; ++i) {
      if (ising_.h[i] != 0.0) c.RZ(i, -2 * gamma * ising_.h[i]);
    }
    for (const auto& [key, j] : ising_.j) {
      if (j != 0.0) c.RZZ(key.first, key.second, 2 * gamma * j);
    }
    for (int q = 0; q < num_qubits_; ++q) c.RX(q, 2 * beta);
  }
  return c;
}

OptimizationResult Qaoa::Optimize(Optimizer* optimizer, int restarts,
                                  Rng* rng) const {
  QDM_CHECK_GT(restarts, 0);
  OptimizationResult best;
  best.value = 1e300;
  Objective objective = [this](const std::vector<double>& p) {
    return Expectation(p);
  };
  for (int r = 0; r < restarts; ++r) {
    std::vector<double> initial(num_parameters());
    for (int i = 0; i < layers_; ++i) {
      initial[i] = rng->Uniform(0.0, M_PI / 4);            // gammas
      initial[layers_ + i] = rng->Uniform(0.0, M_PI / 4);  // betas
    }
    OptimizationResult run = optimizer->Minimize(objective, initial, rng);
    run.evaluations += best.evaluations;
    if (run.value < best.value) {
      best = run;
    } else {
      best.evaluations = run.evaluations;
    }
  }
  return best;
}

Result<anneal::SampleSet> QaoaSampler::Solve(
    const anneal::Qubo& qubo, const anneal::SolverOptions& options) {
  QDM_RETURN_IF_ERROR(anneal::ValidateSolverOptions(options));
  QDM_RETURN_IF_ERROR(
      CheckFitsStateVector(qubo, options, kDefaultMaxQubits, "QAOA"));
  std::optional<Rng> local;
  Rng* rng = anneal::ResolveSolverRng(options, &local);
  Qaoa qaoa(qubo, options.layers > 0 ? options.layers : kDefaultLayers);
  CoordinateDescent optimizer;
  const OptimizationResult opt = qaoa.Optimize(
      &optimizer, options.restarts > 0 ? options.restarts : kDefaultRestarts,
      rng);
  if (!options.noise.IsNoiseless()) {
    // The gate-level circuit produces the same state as the fast diagonal
    // path up to global phase, which the fidelity metric is invariant to.
    return SampleCircuitNoisy(qaoa.BuildCircuit(opt.parameters),
                              qaoa.diagonal(), ToNoiseModel(options.noise),
                              options.num_reads, options);
  }
  const sim::Statevector sv = qaoa.StateForParameters(opt.parameters);
  anneal::SampleSet set;
  for (int read = 0; read < options.num_reads; ++read) {
    AddBasisSample(&set, qaoa.diagonal(), qubo.num_variables(),
                   sv.SampleBasisState(rng));
  }
  return set;
}

}  // namespace algo
}  // namespace qdm
