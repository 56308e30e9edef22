#include "qdm/qopt/mqo.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "qdm/common/check.h"
#include "qdm/qopt/qubo_pipeline.h"

namespace qdm {
namespace qopt {

int MqoProblem::num_variables() const {
  int n = 0;
  for (const auto& costs : plan_costs) n += static_cast<int>(costs.size());
  return n;
}

int MqoProblem::VarIndex(int query, int plan) const {
  QDM_CHECK(query >= 0 && query < num_queries());
  QDM_CHECK(plan >= 0 && plan < num_plans(query));
  int base = 0;
  for (int q = 0; q < query; ++q) base += num_plans(q);
  return base + plan;
}

double MqoProblem::SelectionCost(const std::vector<int>& plan_choice) const {
  QDM_CHECK_EQ(plan_choice.size(), static_cast<size_t>(num_queries()));
  double cost = 0.0;
  for (int q = 0; q < num_queries(); ++q) {
    cost += plan_costs[q][plan_choice[q]];
  }
  for (const Sharing& s : savings) {
    if (plan_choice[s.query_a] == s.plan_a &&
        plan_choice[s.query_b] == s.plan_b) {
      cost -= s.saving;
    }
  }
  return cost;
}

MqoProblem GenerateMqoProblem(int num_queries, int plans_per_query,
                              double sharing_density, Rng* rng) {
  QDM_CHECK_GE(num_queries, 1);
  QDM_CHECK_GE(plans_per_query, 1);
  MqoProblem problem;
  problem.plan_costs.resize(num_queries);
  for (auto& costs : problem.plan_costs) {
    costs.resize(plans_per_query);
    for (double& c : costs) c = rng->Uniform(10.0, 100.0);
  }
  for (int qa = 0; qa < num_queries; ++qa) {
    for (int qb = qa + 1; qb < num_queries; ++qb) {
      for (int pa = 0; pa < plans_per_query; ++pa) {
        for (int pb = 0; pb < plans_per_query; ++pb) {
          if (!rng->Bernoulli(sharing_density)) continue;
          const double cheaper =
              std::min(problem.plan_costs[qa][pa], problem.plan_costs[qb][pb]);
          problem.savings.push_back(MqoProblem::Sharing{
              qa, pa, qb, pb, rng->Uniform(0.1, 0.4) * cheaper});
        }
      }
    }
  }
  return problem;
}

anneal::Qubo MqoToQubo(const MqoProblem& problem, double penalty) {
  if (penalty <= 0.0) {
    // Tight-but-safe bound. Dropping a query's only plan saves at most the
    // most expensive plan cost; adding a surplus plan gains at most the
    // savings touching any single plan. Keeping the penalty close to this
    // bound (instead of the sum over the whole instance) keeps the energy
    // landscape smooth for annealers -- the practical tuning point [20]
    // discusses at the "logical to physical" boundary.
    double max_cost = 0.0;
    for (const auto& costs : problem.plan_costs) {
      for (double c : costs) max_cost = std::max(max_cost, c);
    }
    std::vector<double> savings_touching(problem.num_variables(), 0.0);
    for (const auto& s : problem.savings) {
      savings_touching[problem.VarIndex(s.query_a, s.plan_a)] += s.saving;
      savings_touching[problem.VarIndex(s.query_b, s.plan_b)] += s.saving;
    }
    double max_touch = 0.0;
    for (double t : savings_touching) max_touch = std::max(max_touch, t);
    penalty = max_cost + max_touch + 1.0;
  }
  anneal::Qubo qubo(problem.num_variables());
  for (int q = 0; q < problem.num_queries(); ++q) {
    std::vector<int> vars;
    for (int p = 0; p < problem.num_plans(q); ++p) {
      const int v = problem.VarIndex(q, p);
      qubo.AddLinear(v, problem.plan_costs[q][p]);
      vars.push_back(v);
    }
    qubo.AddExactlyOnePenalty(vars, penalty);
  }
  for (const auto& s : problem.savings) {
    qubo.AddQuadratic(problem.VarIndex(s.query_a, s.plan_a),
                      problem.VarIndex(s.query_b, s.plan_b), -s.saving);
  }
  return qubo;
}

MqoSolution DecodeMqoSample(const MqoProblem& problem,
                            const anneal::Assignment& assignment) {
  QDM_CHECK_EQ(assignment.size(), static_cast<size_t>(problem.num_variables()));
  MqoSolution solution;
  solution.plan_choice.assign(problem.num_queries(), -1);
  solution.feasible = true;
  for (int q = 0; q < problem.num_queries(); ++q) {
    int selected = -1;
    int count = 0;
    for (int p = 0; p < problem.num_plans(q); ++p) {
      if (assignment[problem.VarIndex(q, p)]) {
        selected = p;
        ++count;
      }
    }
    if (count != 1) {
      solution.feasible = false;
      return solution;
    }
    solution.plan_choice[q] = selected;
  }
  solution.cost = problem.SelectionCost(solution.plan_choice);
  return solution;
}

MqoSolution ExhaustiveMqo(const MqoProblem& problem) {
  const int q = problem.num_queries();
  MqoSolution best;
  best.cost = 1e300;
  std::vector<int> choice(q, 0);
  while (true) {
    const double cost = problem.SelectionCost(choice);
    if (cost < best.cost) {
      best.cost = cost;
      best.plan_choice = choice;
      best.feasible = true;
    }
    // Odometer increment.
    int pos = 0;
    while (pos < q) {
      if (++choice[pos] < problem.num_plans(pos)) break;
      choice[pos] = 0;
      ++pos;
    }
    if (pos == q) break;
  }
  return best;
}

MqoSolution GreedyMqo(const MqoProblem& problem) {
  // Pick per-query cheapest plans first, then greedily switch single plans
  // while it improves the global objective (captures easy sharing wins).
  const int q = problem.num_queries();
  MqoSolution solution;
  solution.plan_choice.resize(q);
  for (int i = 0; i < q; ++i) {
    const auto& costs = problem.plan_costs[i];
    solution.plan_choice[i] = static_cast<int>(
        std::min_element(costs.begin(), costs.end()) - costs.begin());
  }
  bool improved = true;
  double cost = problem.SelectionCost(solution.plan_choice);
  while (improved) {
    improved = false;
    for (int i = 0; i < q; ++i) {
      for (int p = 0; p < problem.num_plans(i); ++p) {
        if (p == solution.plan_choice[i]) continue;
        std::vector<int> candidate = solution.plan_choice;
        candidate[i] = p;
        const double c = problem.SelectionCost(candidate);
        if (c < cost - 1e-12) {
          cost = c;
          solution.plan_choice = candidate;
          improved = true;
        }
      }
    }
  }
  solution.cost = cost;
  solution.feasible = true;
  return solution;
}

MqoSolution LocalSearchMqo(const MqoProblem& problem, int iterations,
                           Rng* rng) {
  const int q = problem.num_queries();
  MqoSolution best;
  best.cost = 1e300;
  std::vector<int> choice(q);
  int budget = iterations;
  while (budget > 0) {
    for (int i = 0; i < q; ++i) {
      choice[i] =
          static_cast<int>(rng->UniformInt(0, problem.num_plans(i) - 1));
    }
    double cost = problem.SelectionCost(choice);
    --budget;
    bool improved = true;
    while (improved && budget > 0) {
      improved = false;
      for (int i = 0; i < q && budget > 0; ++i) {
        for (int p = 0; p < problem.num_plans(i) && budget > 0; ++p) {
          if (p == choice[i]) continue;
          const int old = choice[i];
          choice[i] = p;
          const double c = problem.SelectionCost(choice);
          --budget;
          if (c < cost - 1e-12) {
            cost = c;
            improved = true;
          } else {
            choice[i] = old;
          }
        }
      }
    }
    if (cost < best.cost) {
      best.cost = cost;
      best.plan_choice = choice;
      best.feasible = true;
    }
  }
  return best;
}

namespace {

/// The MQO adapter over the shared pipeline: MqoToQubo in, DecodeMqoSample
/// out. Everything else (registry dispatch, batching, determinism, error
/// framing) is QuboPipeline.
QuboPipeline<MqoProblem, MqoSolution> MqoPipeline(
    const std::string& solver_name, double penalty) {
  return QuboPipeline<MqoProblem, MqoSolution>(
      solver_name,
      [penalty](const MqoProblem& p) { return MqoToQubo(p, penalty); },
      [](const MqoProblem& p, const anneal::Sample& best) {
        return DecodeMqoSample(p, best.assignment);
      });
}

}  // namespace

Result<MqoSolution> SolveMqo(const MqoProblem& problem,
                             const std::string& solver_name,
                             const anneal::SolverOptions& options,
                             double penalty) {
  return MqoPipeline(solver_name, penalty).Run(problem, options);
}

Result<std::vector<MqoSolution>> SolveMqoBatch(
    const std::vector<MqoProblem>& problems, const std::string& solver_name,
    const anneal::SolverOptions& options, double penalty, int num_threads) {
  return MqoPipeline(solver_name, penalty)
      .RunBatch(problems, options, num_threads);
}

}  // namespace qopt
}  // namespace qdm
