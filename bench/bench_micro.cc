// Microbenchmarks (google-benchmark) for the toolkit's hot paths: gate
// application, annealing sweeps, QUBO construction, the qdmd wire codec, DP
// join optimization and hash-join execution. These are engineering benchmarks,
// not paper experiments; they track the substrate's raw speed.

#include <benchmark/benchmark.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "qdm/anneal/backend_cache.h"
#include "qdm/anneal/embedded_solver.h"
#include "qdm/anneal/embedding.h"
#include "qdm/anneal/simulated_annealing.h"
#include "qdm/anneal/solver.h"
#include "qdm/anneal/topology.h"
#include "qdm/circuit/circuit.h"
#include "qdm/common/rng.h"
#include "qdm/db/executor.h"
#include "qdm/db/join_optimizer.h"
#include "qdm/db/workload.h"
#include "qdm/net/wire.h"
#include "qdm/qopt/mqo.h"
#include "qdm/sim/density_matrix.h"
#include "qdm/sim/noise.h"
#include "qdm/sim/statevector.h"

namespace {

void BM_Hadamard1Q(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  qdm::sim::Statevector sv(n);
  const qdm::linalg::Matrix h =
      qdm::circuit::SingleQubitMatrix(qdm::circuit::GateKind::kH, {});
  for (auto _ : state) {
    for (int q = 0; q < n; ++q) sv.Apply1Q(h, q);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Hadamard1Q)->Arg(10)->Arg(16)->Arg(20);

// The two ApplyDiagonalPhase paths: per-element std::function indirection vs
// a precomputed diagonal. The precomputed overload is the hot path of the
// QAOA/Grover inner loops; the benchmark first asserts both paths produce
// the same state, then measures each.
void BM_DiagonalPhaseFunction(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const uint64_t dim = uint64_t{1} << n;
  std::vector<double> diagonal(dim);
  for (uint64_t z = 0; z < dim; ++z) {
    diagonal[z] = 0.01 * static_cast<double>(z % 97);
  }
  qdm::sim::Statevector sv(n);
  for (auto _ : state) {
    sv.ApplyDiagonalPhase([&](uint64_t z) { return -0.5 * diagonal[z]; });
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(dim));
}
BENCHMARK(BM_DiagonalPhaseFunction)->Arg(16)->Arg(20);

void BM_DiagonalPhasePrecomputed(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const uint64_t dim = uint64_t{1} << n;
  std::vector<double> diagonal(dim);
  for (uint64_t z = 0; z < dim; ++z) {
    diagonal[z] = 0.01 * static_cast<double>(z % 97);
  }
  // Assertion: the precomputed overload matches the std::function path.
  {
    qdm::sim::Statevector via_function(n);
    qdm::sim::Statevector via_diagonal(n);
    via_function.ApplyDiagonalPhase(
        [&](uint64_t z) { return -0.5 * diagonal[z]; });
    via_diagonal.ApplyDiagonalPhase(diagonal, -0.5);
    QDM_CHECK_GT(via_function.FidelityWith(via_diagonal), 1.0 - 1e-12)
        << "precomputed-diagonal fast path diverged from the callable path";
  }
  qdm::sim::Statevector sv(n);
  for (auto _ : state) {
    sv.ApplyDiagonalPhase(diagonal, -0.5);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(dim));
}
BENCHMARK(BM_DiagonalPhasePrecomputed)->Arg(16)->Arg(20);

// Sets the process-wide statevector kernel config for one scope, restoring
// the previous one on destruction.
class ScopedExecutionConfig {
 public:
  explicit ScopedExecutionConfig(const qdm::sim::ExecutionConfig& config)
      : previous_(qdm::sim::Statevector::DefaultExecutionConfig()) {
    qdm::sim::Statevector::SetDefaultExecutionConfig(config);
  }
  ~ScopedExecutionConfig() {
    qdm::sim::Statevector::SetDefaultExecutionConfig(previous_);
  }

 private:
  qdm::sim::ExecutionConfig previous_;
};

// Thread sweep over the parallel gate kernels on a 20-qubit state (the
// regime the QAOA/Grover workloads bottleneck in). Serial cutoff is forced
// low so every row times the same dispatch path; threads=1 is the serial
// baseline the perf gate compares the parallel rows against. Each sweep
// first asserts the parallel state is bit-identical to the serial one —
// the kernel-level determinism guarantee, measured where it is claimed.
void BM_Hadamard1QThreads(benchmark::State& state) {
  const int n = 20;
  const int threads = static_cast<int>(state.range(0));
  const qdm::sim::ExecutionConfig config{threads, /*serial_cutoff=*/2};
  const qdm::linalg::Matrix h =
      qdm::circuit::SingleQubitMatrix(qdm::circuit::GateKind::kH, {});
  {
    qdm::sim::Statevector serial(n);
    qdm::sim::Statevector parallel(n);
    {
      ScopedExecutionConfig scoped({1, 2});
      for (int q = 0; q < n; ++q) serial.Apply1Q(h, q);
    }
    {
      ScopedExecutionConfig scoped(config);
      for (int q = 0; q < n; ++q) parallel.Apply1Q(h, q);
    }
    QDM_CHECK(serial.amplitudes() == parallel.amplitudes())
        << "parallel Apply1Q diverged from the serial kernel";
  }
  ScopedExecutionConfig scoped(config);
  qdm::sim::Statevector sv(n);
  for (auto _ : state) {
    for (int q = 0; q < n; ++q) sv.Apply1Q(h, q);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Hadamard1QThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_DiagonalPhaseThreads(benchmark::State& state) {
  const int n = 20;
  const int threads = static_cast<int>(state.range(0));
  const uint64_t dim = uint64_t{1} << n;
  std::vector<double> diagonal(dim);
  for (uint64_t z = 0; z < dim; ++z) {
    diagonal[z] = 0.01 * static_cast<double>(z % 97);
  }
  const qdm::sim::ExecutionConfig config{threads, /*serial_cutoff=*/2};
  {
    qdm::sim::Statevector serial(n);
    qdm::sim::Statevector parallel(n);
    {
      ScopedExecutionConfig scoped({1, 2});
      serial.ApplyDiagonalPhase(diagonal, -0.5);
    }
    {
      ScopedExecutionConfig scoped(config);
      parallel.ApplyDiagonalPhase(diagonal, -0.5);
    }
    QDM_CHECK(serial.amplitudes() == parallel.amplitudes())
        << "parallel ApplyDiagonalPhase diverged from the serial kernel";
  }
  ScopedExecutionConfig scoped(config);
  qdm::sim::Statevector sv(n);
  for (auto _ : state) {
    sv.ApplyDiagonalPhase(diagonal, -0.5);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(dim));
}
BENCHMARK(BM_DiagonalPhaseThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

// Thread x SIMD sweeps over the controlled-phase and swap kernels ("t" is
// the thread count, "simd" 0/1 selects SimdMode::kScalar / kAuto). These are
// the remaining two hot-kernel families (the QAOA cost layers of compiled
// circuits use controlled phases; qubit routing uses swaps); the sweep rows
// let the perf gate see both the thread scaling and the vector speedup of
// each, and every row first asserts bit-identity against the serial scalar
// reference on a random state — the SIMD contract, measured where it is
// claimed.
qdm::sim::Statevector RandomBenchState(int n, uint64_t seed) {
  qdm::Rng rng(seed);
  std::vector<qdm::Complex> amps(uint64_t{1} << n);
  for (qdm::Complex& a : amps) {
    a = qdm::Complex(rng.Uniform(-1, 1), rng.Uniform(-1, 1));
  }
  return qdm::sim::Statevector::FromAmplitudes(std::move(amps),
                                               /*normalize=*/true);
}

qdm::sim::ExecutionConfig SweepConfig(const benchmark::State& state) {
  return qdm::sim::ExecutionConfig{
      static_cast<int>(state.range(0)), /*serial_cutoff=*/2,
      state.range(1) != 0 ? qdm::sim::SimdMode::kAuto
                          : qdm::sim::SimdMode::kScalar};
}

void BM_ControlledPhaseThreads(benchmark::State& state) {
  const int n = 20;
  const qdm::sim::ExecutionConfig config = SweepConfig(state);
  const qdm::linalg::Matrix rz =
      qdm::circuit::SingleQubitMatrix(qdm::circuit::GateKind::kRZ, {0.37});
  const std::vector<int> controls = {3, 17};
  const int target = 11;
  {
    qdm::sim::Statevector serial = RandomBenchState(n, 0xCAFE);
    qdm::sim::Statevector swept = serial;
    {
      ScopedExecutionConfig scoped({1, 2, qdm::sim::SimdMode::kScalar});
      serial.ApplyControlled1Q(controls, target, rz);
    }
    {
      ScopedExecutionConfig scoped(config);
      swept.ApplyControlled1Q(controls, target, rz);
    }
    QDM_CHECK(serial.amplitudes() == swept.amplitudes())
        << "ApplyControlled1Q diverged from the serial scalar kernel";
  }
  ScopedExecutionConfig scoped(config);
  qdm::sim::Statevector sv = RandomBenchState(n, 0xCAFE);
  for (auto _ : state) {
    sv.ApplyControlled1Q(controls, target, rz);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(uint64_t{1} << n));
}
BENCHMARK(BM_ControlledPhaseThreads)
    ->ArgsProduct({{1, 2, 4, 8}, {0, 1}})
    ->ArgNames({"t", "simd"})
    ->UseRealTime();

void BM_SwapThreads(benchmark::State& state) {
  const int n = 20;
  const qdm::sim::ExecutionConfig config = SweepConfig(state);
  {
    qdm::sim::Statevector serial = RandomBenchState(n, 0xBEEF);
    qdm::sim::Statevector swept = serial;
    {
      ScopedExecutionConfig scoped({1, 2, qdm::sim::SimdMode::kScalar});
      serial.ApplySwap(2, 18);
    }
    {
      ScopedExecutionConfig scoped(config);
      swept.ApplySwap(2, 18);
    }
    QDM_CHECK(serial.amplitudes() == swept.amplitudes())
        << "ApplySwap diverged from the serial scalar kernel";
  }
  ScopedExecutionConfig scoped(config);
  qdm::sim::Statevector sv = RandomBenchState(n, 0xBEEF);
  for (auto _ : state) {
    sv.ApplySwap(2, 18);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(uint64_t{1} << n));
}
BENCHMARK(BM_SwapThreads)
    ->ArgsProduct({{1, 2, 4, 8}, {0, 1}})
    ->ArgNames({"t", "simd"})
    ->UseRealTime();

// Backend-creation cost, cold vs cached (backend_cache.h). Both arms end
// with an embedded:simulated_annealing:pegasus:6 backend READY TO SOLVE a
// kEmbedVars-variable instance — i.e. with its clique-embedding plan
// materialised, which is where the construction cost actually lives (the
// pegasus adjacency itself is computed on demand). The cold arm re-pays
// what every per-instance creation paid before the cache landed: topology
// + fresh plan + base construction per backend. The cached arm is the
// per-worker batch fan-out path after first touch: a registry Create that
// shares the topology, plus the shared_ptr plan lookup that
// EmbeddedSolver::Solve performs with its own topology member.
constexpr int kEmbedVars = 20;  // pegasus:6 clique capacity (4 * (m - 1)).

std::unique_ptr<qdm::anneal::QuboSolver> CreateColdEmbedded() {
  auto topology = qdm::anneal::MakeTopology("pegasus:6");
  QDM_CHECK(topology.ok()) << topology.status();
  auto plan = qdm::anneal::CliqueEmbedding(kEmbedVars, **topology);
  QDM_CHECK(plan.ok()) << plan.status();
  benchmark::DoNotOptimize(plan->chains.data());
  auto base =
      qdm::anneal::SolverRegistry::Global().Create("simulated_annealing");
  QDM_CHECK(base.ok()) << base.status();
  return std::make_unique<qdm::anneal::EmbeddedSolver>(
      "embedded:simulated_annealing:pegasus:6", "simulated_annealing",
      std::move(*base),
      std::shared_ptr<const qdm::anneal::HardwareTopology>(
          std::move(*topology)));
}

std::unique_ptr<qdm::anneal::QuboSolver> CreateCachedEmbedded() {
  auto solver = qdm::anneal::SolverRegistry::Global().Create(
      "embedded:simulated_annealing:pegasus:6");
  QDM_CHECK(solver.ok()) << solver.status();
  // The solver's first Solve fetches the plan through the cache with its
  // own topology member — mirror that lookup here so the arm covers the
  // full "ready to solve kEmbedVars variables" cost.
  static const std::shared_ptr<const qdm::anneal::HardwareTopology> topology =
      [] {
        auto t = qdm::anneal::GetCachedTopology("pegasus:6");
        QDM_CHECK(t.ok()) << t.status();
        return std::move(t).value();
      }();
  auto plan = qdm::anneal::GetCachedCliqueEmbedding(kEmbedVars, *topology);
  QDM_CHECK(plan.ok()) << plan.status();
  benchmark::DoNotOptimize((*plan)->chains.data());
  return std::move(solver).value();
}

// The acceptance contract of the cache — cached creation at least 5x the
// cold items/s — asserted at bench runtime on a short timed pass, so a
// regression to per-creation plan construction aborts the bench run
// instead of waiting for the baseline comparison. Each arm is timed as the
// minimum over interleaved blocks, which discards scheduler interference
// instead of averaging it in.
void CheckCachedCreationSpeedup() {
  static const bool checked = [] {
    (void)CreateCachedEmbedded();  // Warm the cache.
    const int kBlocks = 8;
    const int kRepsPerBlock = 16;
    double cold_ns = std::numeric_limits<double>::infinity();
    double cached_ns = std::numeric_limits<double>::infinity();
    for (int b = 0; b < kBlocks; ++b) {
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kRepsPerBlock; ++i) {
        benchmark::DoNotOptimize(CreateColdEmbedded().get());
      }
      const auto t1 = std::chrono::steady_clock::now();
      for (int i = 0; i < kRepsPerBlock; ++i) {
        benchmark::DoNotOptimize(CreateCachedEmbedded().get());
      }
      const auto t2 = std::chrono::steady_clock::now();
      cold_ns = std::min(
          cold_ns, std::chrono::duration<double, std::nano>(t1 - t0).count());
      cached_ns = std::min(
          cached_ns, std::chrono::duration<double, std::nano>(t2 - t1).count());
    }
    QDM_CHECK(cold_ns >= 5.0 * cached_ns)
        << "cached embedded-backend creation is only "
        << cold_ns / cached_ns << "x the cold path (contract: >= 5x)";
    return true;
  }();
  (void)checked;
}

void BM_BackendCreateCold(benchmark::State& state) {
  CheckCachedCreationSpeedup();
  for (auto _ : state) {
    benchmark::DoNotOptimize(CreateColdEmbedded().get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BackendCreateCold);

void BM_BackendCreateCached(benchmark::State& state) {
  CheckCachedCreationSpeedup();
  for (auto _ : state) {
    benchmark::DoNotOptimize(CreateCachedEmbedded().get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BackendCreateCached);

// Portfolio dispatch on a skewed batch (every instance favors the same
// member): the race pays for both members on all 32 instances, while the
// adaptive selector stops paying the losing arm after its 8-instance
// explore window. Same batch, same seeds — items/s is the cost of hedging.
void BM_PortfolioBatch(benchmark::State& state) {
  const bool adaptive = state.range(0) != 0;
  const char* solver = adaptive ? "adaptive:simulated_annealing+tabu_search"
                                : "race:simulated_annealing+tabu_search";
  const int kInstances = 32;
  qdm::Rng gen_rng(21);
  std::vector<qdm::anneal::Qubo> qubos;
  qubos.reserve(kInstances);
  for (int i = 0; i < kInstances; ++i) {
    qubos.push_back(qdm::qopt::MqoToQubo(
        qdm::qopt::GenerateMqoProblem(6, 3, 0.3, &gen_rng)));
  }
  qdm::anneal::SolverOptions options;
  options.num_reads = 5;
  options.num_sweeps = 300;
  options.seed = 21;
  for (auto _ : state) {
    auto sets = qdm::anneal::SolveBatchParallel(solver, qubos, options,
                                                /*num_threads=*/4);
    QDM_CHECK(sets.ok()) << solver << ": " << sets.status();
    benchmark::DoNotOptimize(sets->data());
  }
  state.SetItemsProcessed(state.iterations() * kInstances);
}
BENCHMARK(BM_PortfolioBatch)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("adaptive")
    ->UseRealTime();

void BM_CnotLadder(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  qdm::circuit::Circuit c(n);
  c.H(0);
  for (int q = 0; q + 1 < n; ++q) c.CX(q, q + 1);
  for (auto _ : state) {
    qdm::sim::Statevector sv = qdm::sim::RunCircuit(c);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
}
BENCHMARK(BM_CnotLadder)->Arg(12)->Arg(18);

// Exact noisy evolution of one QAOA-shaped layer on n qubits (H and RZ on
// every qubit, an RZZ chain, RX on every qubit) under depol@0.01: the
// density path the noisy gate-based backends take up to
// algo::kMaxDensityQubits. Items are gates.
void BM_EvolveDensityMatrix(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  qdm::circuit::Circuit c(n);
  for (int q = 0; q < n; ++q) c.H(q).RZ(q, 0.3 + 0.1 * q);
  for (int q = 0; q + 1 < n; ++q) c.RZZ(q, q + 1, 0.7);
  for (int q = 0; q < n; ++q) c.RX(q, 0.9);
  qdm::sim::NoiseModel model;
  model.depolarizing_1q = 0.01;
  model.depolarizing_2q = 0.01;
  for (auto _ : state) {
    const qdm::sim::DensityMatrix rho = qdm::sim::EvolveDensityMatrix(c, model);
    benchmark::DoNotOptimize(rho.ProbabilityOfOne(0));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(c.size()));
}
BENCHMARK(BM_EvolveDensityMatrix)->Arg(4)->Arg(6);

// The sampler benches' QUBO: a band of width 8 (degree <= 14) with
// coefficients drawn from `rng`: uniform reals in [-1, 1), or nonzero
// integers in [-4, 4], which take the samplers' exact-field path.
qdm::anneal::Qubo BandQubo(int n, bool integer, qdm::Rng* rng) {
  const auto coefficient = [&] {
    if (!integer) return rng->Uniform(-1, 1);
    const double magnitude = static_cast<double>(rng->UniformInt(1, 4));
    return rng->Bernoulli(0.5) ? magnitude : -magnitude;
  };
  qdm::anneal::Qubo qubo(n);
  for (int i = 0; i < n; ++i) qubo.AddLinear(i, coefficient());
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n && j < i + 8; ++j) {
      qubo.AddQuadratic(i, j, coefficient());
    }
  }
  return qubo;
}

// One read of `solver` per iteration on BandQubo(n), with the knobs in
// `options`; items are the flip deltas the read evaluates.
void RunSamplerBench(benchmark::State& state, const char* solver,
                     qdm::anneal::SolverOptions options,
                     int64_t deltas_per_variable, bool integer = false) {
  const int n = static_cast<int>(state.range(0));
  qdm::Rng rng(1);
  const qdm::anneal::Qubo qubo = BandQubo(n, integer, &rng);
  auto sampler = qdm::anneal::SolverRegistry::Global().Create(solver);
  QDM_CHECK(sampler.ok()) << sampler.status();
  options.num_reads = 1;
  options.rng = &rng;
  for (auto _ : state) {
    auto set = (*sampler)->Solve(qubo, options);
    benchmark::DoNotOptimize(set->best().energy);
  }
  state.SetItemsProcessed(state.iterations() * deltas_per_variable * n);
}

void BM_AnnealSweeps(benchmark::State& state) {
  qdm::anneal::SolverOptions options;
  options.num_sweeps = 100;
  RunSamplerBench(state, "simulated_annealing", options, 100);
}
BENCHMARK(BM_AnnealSweeps)->Arg(64)->Arg(256)->Arg(1024);

// BM_AnnealSweeps on an integer band, where the sweeps keep exact local
// fields instead of summing each CSR row.
void BM_AnnealSweepsInteger(benchmark::State& state) {
  qdm::anneal::SolverOptions options;
  options.num_sweeps = 100;
  RunSamplerBench(state, "simulated_annealing", options, 100, true);
}
BENCHMARK(BM_AnnealSweepsInteger)->Arg(64)->Arg(256)->Arg(1024);

void BM_TemperingSweeps(benchmark::State& state) {
  qdm::anneal::SolverOptions options;
  options.num_sweeps = 100;
  options.num_replicas = 8;
  RunSamplerBench(state, "parallel_tempering", options, 100 * 8);
}
BENCHMARK(BM_TemperingSweeps)->Arg(64)->Arg(256)->Arg(1024);

void BM_TabuIterations(benchmark::State& state) {
  qdm::anneal::SolverOptions options;
  options.max_iterations = 100;
  RunSamplerBench(state, "tabu_search", options, 100);
}
BENCHMARK(BM_TabuIterations)->Arg(64)->Arg(256)->Arg(1024);

// Whole solves of state.range(0) reads on BandQubo(64), timed in real time
// because the read groups run on pool threads. On the avx2 tier,
// simulated_annealing and tabu_search run every solve of two or more reads
// in lanes of four (docs/solvers.md, "Reads in lanes"): 4 reads are one
// group on the caller, 10 reads groups of 4, 4 and 2. Items are the flip
// deltas the reads evaluate.
void RunReadsBench(benchmark::State& state, const char* solver,
                   qdm::anneal::SolverOptions options,
                   int64_t deltas_per_variable, bool integer) {
  constexpr int kVariables = 64;
  qdm::Rng rng(1);
  const qdm::anneal::Qubo qubo = BandQubo(kVariables, integer, &rng);
  auto sampler = qdm::anneal::SolverRegistry::Global().Create(solver);
  QDM_CHECK(sampler.ok()) << sampler.status();
  options.num_reads = static_cast<int>(state.range(0));
  options.rng = &rng;
  for (auto _ : state) {
    auto set = (*sampler)->Solve(qubo, options);
    benchmark::DoNotOptimize(set->best().energy);
  }
  state.SetItemsProcessed(state.iterations() * options.num_reads *
                          deltas_per_variable * kVariables);
}

void BM_AnnealReads(benchmark::State& state) {
  qdm::anneal::SolverOptions options;
  options.num_sweeps = 100;
  RunReadsBench(state, "simulated_annealing", options, 100,
                state.range(1) != 0);
}
BENCHMARK(BM_AnnealReads)
    ->ArgsProduct({{4, 10}, {0, 1}})
    ->ArgNames({"reads", "integer"})
    ->UseRealTime();

void BM_TabuReads(benchmark::State& state) {
  qdm::anneal::SolverOptions options;
  options.max_iterations = 100;
  RunReadsBench(state, "tabu_search", options, 100, false);
}
BENCHMARK(BM_TabuReads)->Arg(4)->UseRealTime();

// The samplers' acceptance draw: items are Uniform() calls.
void BM_RngUniform(benchmark::State& state) {
  qdm::Rng rng(1);
  constexpr int kDraws = 1024;
  for (auto _ : state) {
    double sum = 0.0;
    for (int i = 0; i < kDraws; ++i) sum += rng.Uniform();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kDraws);
}
BENCHMARK(BM_RngUniform);

// The read lanes' block draw: BM_RngUniform's 1,024 values per iteration
// in one call, checked equal to the Uniform() calls before timing. It runs
// where the lanes do (QuboAdjacency::ReadLanes()).
void BM_RngFillUniform(benchmark::State& state) {
  if (!qdm::anneal::QuboAdjacency::ReadLanes()) {
    state.SkipWithError("the block draw runs with the read lanes (avx2 tier)");
    return;
  }
  constexpr int kDraws = 1024;
  std::vector<double> block(kDraws);
  {
    qdm::Rng single(1);
    qdm::Rng blocked(1);
    std::vector<double> expected(kDraws);
    for (int round = 0; round < 3; ++round) {
      for (double& u : expected) u = single.Uniform();
      blocked.FillUniformAvx2(block.data(), kDraws);
      QDM_CHECK(std::memcmp(block.data(), expected.data(),
                            kDraws * sizeof(double)) == 0)
          << "FillUniformAvx2 differs from Uniform() in round " << round;
    }
  }
  qdm::Rng rng(1);
  for (auto _ : state) {
    rng.FillUniformAvx2(block.data(), kDraws);
    benchmark::DoNotOptimize(block.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kDraws);
}
BENCHMARK(BM_RngFillUniform);

void BM_MqoQuboBuild(benchmark::State& state) {
  qdm::Rng rng(2);
  auto problem = qdm::qopt::GenerateMqoProblem(
      static_cast<int>(state.range(0)), 3, 0.3, &rng);
  for (auto _ : state) {
    auto qubo = qdm::qopt::MqoToQubo(problem);
    benchmark::DoNotOptimize(qubo.num_variables());
  }
}
BENCHMARK(BM_MqoQuboBuild)->Arg(8)->Arg(32);

// The qdmd wire codec on one remote MQO job: 8 queries x 3 plans is a
// 24-variable QUBO, solved with 4 reads x 200 sweeps. Items are requests
// encoded or decoded, or results responses decoded.
qdm::net::JobRequest MqoJobRequest() {
  qdm::Rng rng(1);
  qdm::net::JobRequest request;
  request.solver = "simulated_annealing";
  request.qubos.push_back(
      qdm::qopt::MqoToQubo(qdm::qopt::GenerateMqoProblem(8, 3, 0.3, &rng)));
  request.options.num_reads = 4;
  request.options.num_sweeps = 200;
  request.options.seed = 1;
  return request;
}

void BM_WireEncodeJobRequest(benchmark::State& state) {
  const qdm::net::JobRequest request = MqoJobRequest();
  for (auto _ : state) {
    benchmark::DoNotOptimize(qdm::net::EncodeJobRequest(request).size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WireEncodeJobRequest);

void BM_WireDecodeJobRequest(benchmark::State& state) {
  const std::string body = qdm::net::EncodeJobRequest(MqoJobRequest());
  QDM_CHECK(qdm::net::DecodeJobRequest(body).ok());
  for (auto _ : state) {
    benchmark::DoNotOptimize(qdm::net::DecodeJobRequest(body).ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WireDecodeJobRequest);

void BM_WireDecodeResults(benchmark::State& state) {
  const qdm::net::JobRequest request = MqoJobRequest();
  auto solved =
      qdm::anneal::SolveWith(request.solver, request.qubos[0], request.options);
  QDM_CHECK(solved.ok()) << solved.status();
  const std::string body = qdm::net::EncodeResultsResponse({*solved});
  QDM_CHECK(qdm::net::DecodeResultsResponse(body).ok());
  for (auto _ : state) {
    benchmark::DoNotOptimize(qdm::net::DecodeResultsResponse(body).ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WireDecodeResults);

void BM_OptimalBushyPlan(benchmark::State& state) {
  qdm::Rng rng(3);
  auto graph = qdm::db::JoinGraph::RandomClique(
      static_cast<int>(state.range(0)), &rng);
  for (auto _ : state) {
    auto plan = qdm::db::OptimalBushyPlan(graph);
    benchmark::DoNotOptimize(plan.cost);
  }
}
BENCHMARK(BM_OptimalBushyPlan)->Arg(8)->Arg(12);

void BM_HashJoinExecution(benchmark::State& state) {
  qdm::Rng rng(4);
  auto workload = qdm::db::GenerateJoinWorkload(
      qdm::db::QueryShape::kChain, 4,
      qdm::db::WorkloadOptions{.min_rows = 100, .max_rows = 400}, &rng);
  auto plan = qdm::db::OptimalLeftDeepPlan(workload.graph);
  for (auto _ : state) {
    auto result =
        qdm::db::ExecuteJoinTree(plan.tree, workload.graph, workload.catalog);
    benchmark::DoNotOptimize(result->num_rows());
  }
}
BENCHMARK(BM_HashJoinExecution);

}  // namespace

// Custom main so the report carries the SIMD tier the binary actually
// selected (CMake option + CPUID), the compiler and the number of CPUs the
// process may run on (1 when pinned): the perf-gate CI step logs
// context.qdm_simd_tier next to the numbers, and perf_gate.py records the
// context with a baseline and prints it beside a regressed row, so a
// regression caused by a dispatch, toolchain or pinning change (e.g. the
// runner losing AVX2) is visible at a glance.
int main(int argc, char** argv) {
  benchmark::AddCustomContext(
      "qdm_simd_tier",
      qdm::sim::simd::TierName(qdm::sim::simd::DetectedTier()));
#if defined(__clang__)
  benchmark::AddCustomContext("compiler", "clang " __clang_version__);
#elif defined(__GNUC__)
  benchmark::AddCustomContext("compiler", "gcc " __VERSION__);
#endif
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    benchmark::AddCustomContext("cpus_allowed",
                                std::to_string(CPU_COUNT(&allowed)));
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
