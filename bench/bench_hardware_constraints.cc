// E14 -- Paper Sec III-C(3): "we still face many practical constraints such
// as the restricted number of qubits as well as noisy operations."
// Ablations for the design choices DESIGN.md calls out:
//   (1) logical vs physical qubit counts across hardware topologies
//       (Chimera / Pegasus / Zephyr minor-embedding overhead),
//   (2) chain-strength sweep: too weak -> broken chains, too strong ->
//       frozen landscape,
//   (3) penalty-weight sweep for constraint encodings,
//   (4) solution quality under depolarizing gate noise (QAOA),
//   (5) chain-break resolution policy comparison on a weak-chain regime,
//   (6) per-topology embedded batch sweep through the registry's
//       "embedded:<base>:<topology>" backends and SolveBatchParallel,
//       feeding items/s + max-chain-length + chain-break-fraction metrics
//       to scripts/perf_gate.py (--sweep-only --json PATH).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "qdm/algo/qaoa.h"
#include "qdm/anneal/backend_cache.h"
#include "qdm/anneal/embedded_solver.h"
#include "qdm/anneal/embedding.h"
#include "qdm/anneal/solver.h"
#include "qdm/anneal/topology.h"
#include "qdm/common/rng.h"
#include "qdm/common/strings.h"
#include "qdm/common/table_printer.h"
#include "qdm/qopt/mqo.h"
#include "qdm/sim/noise.h"
#include "sweep_util.h"

namespace {

/// The registry backends swept in E14.6 — one per topology family, all over
/// the same annealing base so the topology is the only variable.
constexpr const char* kSweepBackends[] = {
    "embedded:simulated_annealing:chimera:4x4x4",
    "embedded:simulated_annealing:pegasus:6",
    "embedded:simulated_annealing:zephyr:4",
};

}  // namespace

int main(int argc, char** argv) {
  const qdm_bench::SweepFlags flags = qdm_bench::ParseSweepFlags(argc, argv);
  qdm::Rng rng(2024);

  // A fixed MQO workload: one 8-variable instance for the ablations plus a
  // batch of distinct instances for the per-topology sweep.
  qdm::qopt::MqoProblem problem =
      qdm::qopt::GenerateMqoProblem(4, 2, 0.4, &rng);
  qdm::anneal::Qubo qubo = qdm::qopt::MqoToQubo(problem);
  auto& registry = qdm::anneal::SolverRegistry::Global();

  if (!flags.sweep_only) {
    // (1) Embedding overhead per hardware topology.
    qdm::TablePrinter overhead({"logical vars", "topology", "hw qubits",
                                "physical qubits", "max chain", "overhead"});
    for (int n : {4, 8, 12, 16}) {
      const int cells = (n + 3) / 4;
      std::vector<std::string> specs = {
          qdm::StrFormat("chimera:%dx%dx4", cells, cells), "pegasus:6",
          "zephyr:4"};
      for (const std::string& spec : specs) {
        auto topology = qdm::anneal::MakeTopology(spec);
        QDM_CHECK(topology.ok()) << topology.status();
        auto embedding = qdm::anneal::CliqueEmbedding(n, **topology);
        QDM_CHECK(embedding.ok()) << embedding.status();
        overhead.AddRow(
            {qdm::StrFormat("%d", n), (*topology)->name(),
             qdm::StrFormat("%d", (*topology)->num_qubits()),
             qdm::StrFormat("%d", embedding->TotalPhysicalQubits()),
             qdm::StrFormat("%d", embedding->MaxChainLength()),
             qdm::StrFormat(
                 "%.1fx",
                 static_cast<double>(embedding->TotalPhysicalQubits()) / n)});
      }
    }
    std::printf(
        "E14.1: minor-embedding qubit overhead (clique embedding)\n%s\n",
        overhead.ToString().c_str());

    auto ground = qdm::anneal::SolveWith("exact", qubo, {.num_reads = 1});
    QDM_CHECK(ground.ok()) << ground.status();
    const double optimum = ground->best().energy;

    // (2) Chain-strength sweep on Chimera-embedded annealing, through the
    // registry backend's chain_strength knob.
    qdm::TablePrinter chains(
        {"chain strength", "success rate", "mean chain breaks"});
    for (double strength : {0.05, 0.2, 1.0, 5.0, 25.0, 125.0}) {
      qdm::anneal::SolverOptions options;
      options.num_reads = 30;
      options.rng = &rng;
      options.num_sweeps = 400;
      options.chain_strength = strength;
      auto set = qdm::anneal::SolveWith(
          "embedded:simulated_annealing:chimera:2x2x4", qubo, options);
      QDM_CHECK(set.ok()) << set.status();
      double breaks = 0;
      for (const auto& s : set->samples()) breaks += s.chain_break_fraction;
      chains.AddRow({qdm::StrFormat("%.2f", strength),
                     qdm::StrFormat("%.2f", set->SuccessRate(optimum)),
                     qdm::StrFormat("%.3f", breaks / set->size())});
    }
    std::printf(
        "E14.2: chain-strength sweep (8 logical vars on C(2,2,4))\n%s\n",
        chains.ToString().c_str());

    // (3) Penalty-weight sweep on the logical QUBO.
    qdm::TablePrinter penalties(
        {"penalty x auto", "feasible rate", "success rate"});
    for (double scale : {0.02, 0.1, 0.5, 1.0, 5.0, 25.0}) {
      // Derive the auto penalty from the instance the same way MqoToQubo does.
      double max_cost = 0.0;
      for (const auto& costs : problem.plan_costs) {
        for (double c : costs) max_cost = std::max(max_cost, c);
      }
      const double auto_penalty = max_cost + 1.0;  // Savings touch is
                                                   // instance-specific; this
                                                   // underestimates slightly,
                                                   // fine for a relative sweep.
      qdm::anneal::Qubo swept =
          qdm::qopt::MqoToQubo(problem, scale * auto_penalty);
      qdm::anneal::SolverOptions options;
      options.num_reads = 40;
      options.rng = &rng;
      options.num_sweeps = 400;
      auto set = qdm::anneal::SolveWith("simulated_annealing", swept, options);
      QDM_CHECK(set.ok()) << set.status();
      int feasible = 0, optimal_hits = 0;
      for (const auto& s : set->samples()) {
        auto decoded = qdm::qopt::DecodeMqoSample(problem, s.assignment);
        if (decoded.feasible) {
          ++feasible;
          if (decoded.cost <= qdm::qopt::ExhaustiveMqo(problem).cost + 1e-9) {
            ++optimal_hits;
          }
        }
      }
      penalties.AddRow({qdm::StrFormat("%.2f", scale),
                        qdm::StrFormat("%.2f", feasible / 40.0),
                        qdm::StrFormat("%.2f", optimal_hits / 40.0)});
    }
    std::printf("E14.3: constraint-penalty sweep\n%s\n",
                penalties.ToString().c_str());

    // (4) QAOA under depolarizing gate noise.
    qdm::TablePrinter noise_table(
        {"depolarizing p", "mean cost (sampled)", "optimum"});
    qdm::algo::Qaoa qaoa(qubo, 2);
    qdm::algo::CoordinateDescent optimizer;
    auto opt = qaoa.Optimize(&optimizer, 3, &rng);
    qdm::circuit::Circuit circuit = qaoa.BuildCircuit(opt.parameters);
    const std::vector<double> diag = qdm::algo::BuildDiagonal(qubo);
    for (double p : {0.0, 0.002, 0.01, 0.05}) {
      qdm::sim::NoiseModel model;
      model.depolarizing_1q = p;
      model.depolarizing_2q = 2 * p;
      qdm::sim::TrajectorySimulator sim(model);
      const double mean =
          sim.AverageDiagonalExpectation(circuit, diag,
                                         /*trajectories=*/200, &rng);
      noise_table.AddRow({qdm::StrFormat("%.3f", p),
                          qdm::StrFormat("%.3f", mean),
                          qdm::StrFormat("%.3f", optimum)});
    }
    std::printf("E14.4: QAOA energy under depolarizing noise\n%s\n",
                noise_table.ToString().c_str());

    // (5) Chain-break policy comparison in the weak-chain regime, through
    // the registry backend and its options knobs.
    qdm::TablePrinter policies(
        {"policy", "success rate", "mean breaks", "samples kept"});
    for (qdm::anneal::ChainBreakPolicy policy :
         {qdm::anneal::ChainBreakPolicy::kMajorityVote,
          qdm::anneal::ChainBreakPolicy::kMinimizeEnergy,
          qdm::anneal::ChainBreakPolicy::kDiscard}) {
      qdm::anneal::SolverOptions options;
      options.num_reads = 40;
      options.num_sweeps = 150;
      options.seed = 99;
      options.chain_strength = 0.3;  // Deliberately weak: chains break.
      options.chain_break_policy = policy;
      auto set = qdm::anneal::SolveWith(
          "embedded:simulated_annealing:chimera:2x2x4", qubo, options);
      QDM_CHECK(set.ok()) << set.status();
      double breaks = 0;
      for (const auto& s : set->samples()) breaks += s.chain_break_fraction;
      policies.AddRow({qdm::anneal::ToString(policy),
                       qdm::StrFormat("%.2f", set->SuccessRate(optimum)),
                       qdm::StrFormat("%.3f", breaks / set->size()),
                       qdm::StrFormat("%zu/40", set->size())});
    }
    std::printf(
        "E14.5: chain-break policy comparison (chain strength 0.3)\n%s\n",
        policies.ToString().c_str());

    std::printf(
        "Shape check: qubit overhead grows ~2 sqrt(n)x; success peaks at\n"
        "intermediate chain strengths and penalties (too small breaks\n"
        "constraints, too large freezes the landscape); noise drives the\n"
        "QAOA energy toward the uniform-sampling mean.\n\n");
  }

  // (6) Per-topology embedded batch sweep: the same logical batch fanned out
  // through SolveBatchParallel under each hardware topology's registry
  // backend. Reuses PR 2's ThreadPool seam; results must be bit-identical
  // at every thread count (asserted inside RunThreadSweep).
  std::vector<qdm::anneal::Qubo> batch;
  {
    qdm::Rng batch_rng(4242);
    for (int i = 0; i < 8; ++i) {
      batch.push_back(qdm::qopt::MqoToQubo(
          qdm::qopt::GenerateMqoProblem(4, 2, 0.4, &batch_rng)));
    }
  }
  qdm::anneal::SolverOptions options;
  options.num_reads = 10;
  options.num_sweeps = 200;
  options.seed = 7;

  qdm_bench::MetricsJson metrics;
  qdm::TablePrinter summary(
      {"backend", "hw qubits", "max chain", "chain breaks", "items/s (t=1)"});
  const qdm::anneal::BackendCacheStats cache_before =
      qdm::anneal::GetBackendCacheStats();
  for (const char* backend : kSweepBackends) {
    auto solver = registry.Create(backend);
    QDM_CHECK(solver.ok()) << solver.status();
    const auto& topology =
        static_cast<const qdm::anneal::EmbeddedSolver&>(**solver).topology();
    const std::string prefix =
        qdm::StrFormat("hw_embed_%s", topology.family().c_str());

    std::vector<qdm::anneal::SampleSet> reference =
        qdm_bench::RunThreadSweep<std::vector<qdm::anneal::SampleSet>>(
            qdm::StrFormat("E14.6: embedded batch sweep — %s", backend).c_str(),
            static_cast<int>(batch.size()), "items/s",
            [&](int threads) {
              auto result = qdm::anneal::SolveBatchParallel(backend, batch,
                                                            options, threads);
              QDM_CHECK(result.ok()) << backend << ": " << result.status();
              return std::move(result).value();
            },
            [](const std::vector<qdm::anneal::SampleSet>& a,
               const std::vector<qdm::anneal::SampleSet>& b) {
              return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                                qdm::anneal::BitIdentical);
            },
            prefix.c_str(), flags, &metrics);

    // Chain geometry + break statistics of the 1-thread reference — gated
    // as EXACT metrics (perf_gate compares them for equality, not speed):
    // they are pure functions of the seeds and topology, so any drift in
    // either direction is a real behavior change.
    auto embedding =
        qdm::anneal::CliqueEmbedding(batch[0].num_variables(), topology);
    QDM_CHECK(embedding.ok()) << embedding.status();
    double breaks = 0;
    size_t samples = 0;
    for (const auto& set : reference) {
      for (const auto& s : set.samples()) breaks += s.chain_break_fraction;
      samples += set.size();
    }
    const double break_fraction = samples > 0 ? breaks / samples : 0.0;
    metrics.AddExact(prefix + "_max_chain_len", embedding->MaxChainLength());
    metrics.AddExact(prefix + "_chain_break_fraction", break_fraction);
    summary.AddRow({backend, qdm::StrFormat("%d", topology.num_qubits()),
                    qdm::StrFormat("%d", embedding->MaxChainLength()),
                    qdm::StrFormat("%.3f", break_fraction), "see sweep above"});
  }
  std::printf("E14.6: per-topology summary\n%s\n", summary.ToString().c_str());

  // Cache-effectiveness gate: the sweep's topology/plan traffic through
  // backend_cache.h is a pure function of the fixed workload under
  // --sweep-only (the CI invocation — the gated JSON is only written
  // there), so the construction/hit deltas are recorded as EXACT metrics.
  // A regression back to per-instance construction shows up as a
  // constructions jump (and hits drop) against the checked-in values.
  const qdm::anneal::BackendCacheStats cache_after =
      qdm::anneal::GetBackendCacheStats();
  const double topo_constructions = static_cast<double>(
      cache_after.topology_constructions - cache_before.topology_constructions);
  const double topo_hits = static_cast<double>(cache_after.topology_hits -
                                               cache_before.topology_hits);
  const double plan_constructions =
      static_cast<double>(cache_after.embedding_constructions -
                          cache_before.embedding_constructions);
  const double plan_hits = static_cast<double>(cache_after.embedding_hits -
                                               cache_before.embedding_hits);
  metrics.AddExact("hw_cache_topology_constructions", topo_constructions);
  metrics.AddExact("hw_cache_topology_hits", topo_hits);
  metrics.AddExact("hw_cache_embedding_constructions", plan_constructions);
  metrics.AddExact("hw_cache_embedding_hits", plan_hits);
  std::printf(
      "Backend-cache effectiveness across the sweep: %g topology\n"
      "constructions / %g hits, %g embedding-plan constructions / %g hits\n"
      "(exact-gated; one construction per distinct artifact).\n\n",
      topo_constructions, topo_hits, plan_constructions, plan_hits);

  if (flags.json_path != nullptr) metrics.WriteTo(flags.json_path);
  return 0;
}
