// E5 -- Paper Sec III-B on Schonberger et al. [SIGMOD'22/'23]: join ordering
// via QUBO. Regenerates the quality-by-topology table: for each query shape
// (chain/star/cycle/clique) and size, the geometric-mean C_out cost ratio to
// the optimal left-deep plan for (a) annealing on the QUBO, (b) tabu on the
// QUBO (hybrid pipeline), (c) the QUBO encoding's own optimum (encoding gap),
// (d) greedy GOO and (e) random orders. The bushy column reports the
// left-deep-vs-bushy optimum gap motivating [25, 26].
//
// --sweep-only / --json additionally run the NISQ noise sweep: join-order
// QUBOs through the "noisy:<model>:qaoa" family (docs/noise.md) at rising
// depolarizing rates, with the seed-exact noise_fidelity values fed to the
// perf gate and monotone degradation checked in-binary.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "qdm/anneal/solver.h"
#include "qdm/common/rng.h"
#include "qdm/common/strings.h"
#include "qdm/common/table_printer.h"
#include "qdm/db/join_optimizer.h"
#include "qdm/qopt/join_order_qubo.h"
#include "sweep_util.h"

namespace {

// Noise sweep: 3-relation join-order QUBOs (9 variables — past the density
// cutoff, so this exercises the per-shot TRAJECTORY path, complementing the
// density-path sweep in bench_mqo_speedup) through "noisy:depol@p:qaoa".
// The mean noise_fidelity at each rate is a pure function of the seed:
// recorded as an exact perf-gate metric and QDM_CHECKed to degrade
// monotonically as the error rate rises.
void RunNoiseSweep(const qdm_bench::SweepFlags& flags,
                   qdm_bench::MetricsJson* metrics) {
  (void)flags;
  const int kInstances = 8;
  qdm::Rng gen_rng(31);
  std::vector<qdm::anneal::Qubo> qubos;
  qubos.reserve(kInstances);
  using qdm::db::QueryShape;
  const QueryShape kShapes[] = {QueryShape::kChain, QueryShape::kStar,
                                QueryShape::kCycle, QueryShape::kClique};
  for (int i = 0; i < kInstances; ++i) {
    qdm::db::JoinGraph g =
        qdm::db::MakeRandomQuery(kShapes[i % 4], 3, &gen_rng);
    qubos.push_back(qdm::qopt::JoinOrderQubo(g).qubo());
  }
  qdm::anneal::SolverOptions options;
  options.num_reads = 32;
  options.layers = 1;
  options.restarts = 1;
  options.seed = 31;

  struct Point {
    const char* model;  // Noise-model token of the solver name.
    const char* label;  // Short key used in metric names.
  };
  const Point kPoints[] = {{"depol@0.0", "p0"},
                           {"depol@0.001", "p001"},
                           {"depol@0.01", "p01"},
                           {"depol@0.05", "p05"}};
  qdm::TablePrinter table({"solver", "total ms", "items/s", "mean fidelity"});
  double previous_fidelity = 2.0;  // Above any reachable fidelity.
  for (const Point& point : kPoints) {
    const std::string solver = qdm::StrFormat("noisy:%s:qaoa", point.model);
    const auto start = std::chrono::steady_clock::now();
    auto sets = qdm::anneal::SolveBatchParallel(solver, qubos, options, 1);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    QDM_CHECK(sets.ok()) << solver << ": " << sets.status();
    double fidelity = 0.0;
    for (const qdm::anneal::SampleSet& set : *sets) {
      fidelity += set.noise_fidelity();
    }
    fidelity /= kInstances;
    QDM_CHECK(fidelity <= previous_fidelity + 1e-12)
        << solver << ": fidelity " << fidelity
        << " not monotone under rising noise (previous " << previous_fidelity
        << ")";
    previous_fidelity = fidelity;
    const double items_per_s = 1000.0 * kInstances / ms;
    table.AddRow({solver, qdm::StrFormat("%.1f", ms),
                  qdm::StrFormat("%.1f", items_per_s),
                  qdm::StrFormat("%.6f", fidelity)});
    metrics->Add(qdm::StrFormat("join_noise_%s_items_per_s", point.label),
                 items_per_s);
    metrics->AddExact(qdm::StrFormat("join_noise_%s_fidelity", point.label),
                      fidelity);
  }
  std::printf(
      "Noise sweep: 8 join-order QUBOs (3 relations, all shapes) through\n"
      "the noisy:* family on the trajectory path; mean noise_fidelity must\n"
      "degrade monotonically (checked) and is seed-exact (perf-gated).\n"
      "%s\n",
      table.ToString().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const qdm_bench::SweepFlags flags = qdm_bench::ParseSweepFlags(argc, argv);
  qdm_bench::MetricsJson metrics;
  if (flags.sweep_only) {
    RunNoiseSweep(flags, &metrics);
    if (flags.json_path != nullptr) metrics.WriteTo(flags.json_path);
    return 0;
  }
  qdm::Rng rng(2024);
  qdm::TablePrinter table({"shape", "n", "anneal/opt", "tabu/opt",
                           "proxy-opt/opt", "greedy/opt", "log10 random/opt",
                           "bushy gain", "feasible"});

  using qdm::db::QueryShape;
  for (QueryShape shape : {QueryShape::kChain, QueryShape::kStar,
                           QueryShape::kCycle, QueryShape::kClique}) {
    for (int n : {4, 6, 8}) {
      const int kSeeds = 8;
      double log_anneal = 0, log_tabu = 0, log_proxy = 0, log_greedy = 0,
             log_random = 0, log_bushy = 0;
      int feasible = 0;
      for (int seed = 0; seed < kSeeds; ++seed) {
        qdm::db::JoinGraph g = qdm::db::MakeRandomQuery(shape, n, &rng);
        const double optimal = qdm::db::OptimalLeftDeepPlan(g).cost;

        // (c) encoding gap: proxy optimum evaluated in true C_out.
        std::vector<int> proxy_best = qdm::qopt::OptimalOrderUnderProxy(g);
        log_proxy +=
            std::log(qdm::db::PermutationCost(proxy_best, g) / optimal);

        // (a) annealer on the QUBO with repair decoding; effort scales with n.
        // Both QUBO arms dispatch through the QuboSolver registry (Figure 2's
        // interchangeable-backend seam).
        qdm::anneal::SolverOptions anneal_options;
        anneal_options.num_sweeps = 300 * n;
        anneal_options.num_reads = 4 * n;
        anneal_options.rng = &rng;
        auto annealed =
            qdm::qopt::SolveJoinOrder(g, "simulated_annealing", anneal_options);
        QDM_CHECK(annealed.ok()) << annealed.status();
        if (annealed->strict_feasible) ++feasible;
        log_anneal +=
            std::log(qdm::db::PermutationCost(annealed->order, g) / optimal);

        // (b) tabu on the same QUBO.
        qdm::anneal::SolverOptions tabu_options;
        tabu_options.max_iterations = 400 * n;
        tabu_options.num_reads = 2 * n;
        tabu_options.rng = &rng;
        auto tabu = qdm::qopt::SolveJoinOrder(g, "tabu_search", tabu_options);
        QDM_CHECK(tabu.ok()) << tabu.status();
        log_tabu +=
            std::log(qdm::db::PermutationCost(tabu->order, g) / optimal);

        // (d, e) classical baselines.
        log_greedy +=
            std::log(qdm::db::GreedyOperatorOrdering(g).cost / optimal);
        log_random +=
            std::log(qdm::db::RandomLeftDeepPlan(g, &rng).cost / optimal);

        // Bushy gain (left-deep optimum / bushy optimum >= 1).
        log_bushy += std::log(optimal / qdm::db::OptimalBushyPlan(g).cost);
      }
      auto geomean = [&](double log_sum) { return std::exp(log_sum / kSeeds); };
      table.AddRow(
          {qdm::db::QueryShapeToString(shape), qdm::StrFormat("%d", n),
           qdm::StrFormat("%.2f", geomean(log_anneal)),
           qdm::StrFormat("%.2f", geomean(log_tabu)),
           qdm::StrFormat("%.2f", geomean(log_proxy)),
           qdm::StrFormat("%.2f", geomean(log_greedy)),
           qdm::StrFormat("%.1f", log_random / kSeeds / std::log(10.0)),
           qdm::StrFormat("%.2f", geomean(log_bushy)),
           qdm::StrFormat("%d/%d", feasible, kSeeds)});
    }
  }
  std::printf(
      "E5: join ordering quality by topology (geometric-mean C_out "
      "ratios; 1.0 = left-deep optimal)\n%s\n",
      table.ToString().c_str());
  std::printf(
      "Shape check: the QUBO pipeline (anneal/tabu) stays within a small\n"
      "factor of optimal and is astronomically better than random orders\n"
      "(note the log10 column); the encoding's own optimum (proxy) is near\n"
      "1.0, so remaining gaps are solver-side, matching the co-design\n"
      "observations of [24].\n\n");
  RunNoiseSweep(flags, &metrics);
  if (flags.json_path != nullptr) metrics.WriteTo(flags.json_path);
  return 0;
}
