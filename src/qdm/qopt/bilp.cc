#include "qdm/qopt/bilp.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "qdm/common/check.h"
#include "qdm/common/strings.h"

namespace qdm {
namespace qopt {

double BilpProblem::Objective(const anneal::Assignment& x) const {
  QDM_CHECK_EQ(x.size(), static_cast<size_t>(num_variables));
  double value = 0.0;
  for (int i = 0; i < num_variables; ++i) {
    if (x[i]) value += objective[i];
  }
  return value;
}

bool BilpProblem::IsFeasible(const anneal::Assignment& x) const {
  for (const BilpConstraint& c : constraints) {
    double lhs = 0.0;
    for (int i = 0; i < num_variables; ++i) {
      if (x[i]) lhs += c.coefficients[i];
    }
    switch (c.relation) {
      case BilpConstraint::Relation::kLessEq:
        if (lhs > c.bound + 1e-9) return false;
        break;
      case BilpConstraint::Relation::kEq:
        if (std::abs(lhs - c.bound) > 1e-9) return false;
        break;
      case BilpConstraint::Relation::kGreaterEq:
        if (lhs < c.bound - 1e-9) return false;
        break;
    }
  }
  return true;
}

namespace {

struct BranchState {
  const BilpProblem* problem;
  anneal::Assignment assignment;
  double best_objective = std::numeric_limits<double>::infinity();
  anneal::Assignment best_assignment;
  bool found = false;
  int64_t nodes = 0;
  // Per-constraint running LHS of fixed variables.
  std::vector<double> lhs;
  // Per-constraint, per-depth remaining min/max contribution of free vars.
  std::vector<std::vector<double>> free_min;
  std::vector<std::vector<double>> free_max;
  // Objective lower bound contribution of free vars from each depth.
  std::vector<double> objective_free_min;
};

void Branch(BranchState* state, int depth, double objective_so_far) {
  ++state->nodes;
  const BilpProblem& problem = *state->problem;
  const int n = problem.num_variables;

  // Objective bound: everything already fixed plus the best the free
  // suffix could contribute.
  if (objective_so_far + state->objective_free_min[depth] >=
      state->best_objective - 1e-12) {
    return;
  }
  // Constraint reachability: each row must still be able to satisfy its
  // relation with the free suffix's min/max contributions.
  for (size_t r = 0; r < problem.constraints.size(); ++r) {
    const BilpConstraint& c = problem.constraints[r];
    const double lo = state->lhs[r] + state->free_min[r][depth];
    const double hi = state->lhs[r] + state->free_max[r][depth];
    switch (c.relation) {
      case BilpConstraint::Relation::kLessEq:
        if (lo > c.bound + 1e-9) return;
        break;
      case BilpConstraint::Relation::kEq:
        if (lo > c.bound + 1e-9 || hi < c.bound - 1e-9) return;
        break;
      case BilpConstraint::Relation::kGreaterEq:
        if (hi < c.bound - 1e-9) return;
        break;
    }
  }

  if (depth == n) {
    // All variables fixed; constraints verified by the bound checks above
    // (lo == hi == lhs at full depth).
    if (objective_so_far < state->best_objective) {
      state->best_objective = objective_so_far;
      state->best_assignment = state->assignment;
      state->found = true;
    }
    return;
  }

  // Branch: try the objective-friendlier value first.
  const int preferred = problem.objective[depth] < 0 ? 1 : 0;
  for (int value : {preferred, 1 - preferred}) {
    state->assignment[depth] = value;
    if (value) {
      for (size_t r = 0; r < problem.constraints.size(); ++r) {
        state->lhs[r] += problem.constraints[r].coefficients[depth];
      }
    }
    Branch(state, depth + 1,
           objective_so_far + (value ? problem.objective[depth] : 0.0));
    if (value) {
      for (size_t r = 0; r < problem.constraints.size(); ++r) {
        state->lhs[r] -= problem.constraints[r].coefficients[depth];
      }
    }
  }
  state->assignment[depth] = 0;
}

}  // namespace

BilpSolution SolveBilpBranchAndBound(const BilpProblem& problem) {
  QDM_CHECK_GT(problem.num_variables, 0);
  QDM_CHECK_EQ(problem.objective.size(),
               static_cast<size_t>(problem.num_variables));
  for (const auto& c : problem.constraints) {
    QDM_CHECK_EQ(c.coefficients.size(),
                 static_cast<size_t>(problem.num_variables));
  }

  BranchState state;
  state.problem = &problem;
  state.assignment.assign(problem.num_variables, 0);

  const int n = problem.num_variables;
  state.lhs.assign(problem.constraints.size(), 0.0);
  state.free_min.assign(problem.constraints.size(),
                        std::vector<double>(n + 1, 0.0));
  state.free_max.assign(problem.constraints.size(),
                        std::vector<double>(n + 1, 0.0));
  state.objective_free_min.assign(n + 1, 0.0);
  for (int depth = n - 1; depth >= 0; --depth) {
    state.objective_free_min[depth] = state.objective_free_min[depth + 1] +
                                      std::min(0.0, problem.objective[depth]);
    for (size_t r = 0; r < problem.constraints.size(); ++r) {
      const double a = problem.constraints[r].coefficients[depth];
      state.free_min[r][depth] =
          state.free_min[r][depth + 1] + std::min(0.0, a);
      state.free_max[r][depth] =
          state.free_max[r][depth + 1] + std::max(0.0, a);
    }
  }

  Branch(&state, 0, 0.0);

  BilpSolution solution;
  solution.feasible = state.found;
  solution.nodes_explored = state.nodes;
  if (state.found) {
    solution.assignment = state.best_assignment;
    solution.objective = state.best_objective;
  }
  return solution;
}

namespace {

bool IsIntegral(double v) {
  return std::abs(v - std::round(v)) < 1e-9;
}

}  // namespace

Result<anneal::Qubo> BilpToQubo(const BilpProblem& problem, double penalty) {
  // Count slack bits first.
  struct RowSlack {
    int first_bit = -1;  // Index into the slack region; -1 for equalities.
    int num_bits = 0;
    double sign = 1.0;  // +1: A x + s == b (<=);  -1: A x - s == b (>=).
  };
  std::vector<RowSlack> slacks(problem.constraints.size());
  int slack_bits = 0;
  for (size_t r = 0; r < problem.constraints.size(); ++r) {
    const BilpConstraint& c = problem.constraints[r];
    if (c.relation == BilpConstraint::Relation::kEq) continue;
    // Integer data required for binary slack expansion.
    if (!IsIntegral(c.bound)) {
      return Status::InvalidArgument(
          StrFormat("inequality row %zu needs an integer bound", r));
    }
    double min_lhs = 0.0, max_lhs = 0.0;
    for (double a : c.coefficients) {
      if (!IsIntegral(a)) {
        return Status::InvalidArgument(
            StrFormat("inequality row %zu needs integer coefficients", r));
      }
      min_lhs += std::min(0.0, a);
      max_lhs += std::max(0.0, a);
    }
    // Slack range: s = b - Ax in [0, b - min_lhs] for <=;
    //              s = Ax - b in [0, max_lhs - b] for >=.
    const double range = c.relation == BilpConstraint::Relation::kLessEq
                             ? c.bound - min_lhs
                             : max_lhs - c.bound;
    if (range < 0) {
      return Status::InvalidArgument(
          StrFormat("inequality row %zu is infeasible for all x", r));
    }
    int bits = 0;
    while ((int64_t{1} << bits) - 1 < static_cast<int64_t>(range + 0.5)) ++bits;
    slacks[r].first_bit = slack_bits;
    slacks[r].num_bits = bits;
    slacks[r].sign =
        c.relation == BilpConstraint::Relation::kLessEq ? 1.0 : -1.0;
    slack_bits += bits;
  }

  if (penalty <= 0.0) {
    double bound = 1.0;
    for (double c : problem.objective) bound += std::abs(c);
    penalty = bound;
  }

  anneal::Qubo qubo(problem.num_variables + slack_bits);

  for (int i = 0; i < problem.num_variables; ++i) {
    qubo.AddLinear(i, problem.objective[i]);
  }

  // Penalty rows: (sum_i a_i x_i + sign * slack - b)^2.
  for (size_t r = 0; r < problem.constraints.size(); ++r) {
    const BilpConstraint& c = problem.constraints[r];
    // Flatten the row into (variable index, coefficient) terms.
    std::vector<std::pair<int, double>> terms;
    for (int i = 0; i < problem.num_variables; ++i) {
      if (c.coefficients[i] != 0.0) terms.emplace_back(i, c.coefficients[i]);
    }
    if (slacks[r].first_bit >= 0) {
      for (int bit = 0; bit < slacks[r].num_bits; ++bit) {
        terms.emplace_back(
            problem.num_variables + slacks[r].first_bit + bit,
            slacks[r].sign * static_cast<double>(int64_t{1} << bit));
      }
    }
    const double b = c.bound;
    // Expand penalty * (sum a_i x_i - b)^2 using x^2 == x.
    qubo.AddOffset(penalty * b * b);
    for (const auto& [i, a] : terms) {
      qubo.AddLinear(i, penalty * (a * a - 2 * a * b));
    }
    for (size_t s = 0; s < terms.size(); ++s) {
      for (size_t t = s + 1; t < terms.size(); ++t) {
        qubo.AddQuadratic(terms[s].first, terms[t].first,
                          2 * penalty * terms[s].second * terms[t].second);
      }
    }
  }
  return qubo;
}

BilpProblem SchemaMatchingToBilp(const SchemaMatchingProblem& problem) {
  BilpProblem bilp;
  bilp.num_variables = problem.num_variables();
  bilp.objective.resize(bilp.num_variables);
  for (int i = 0; i < problem.num_source(); ++i) {
    for (int j = 0; j < problem.num_target(); ++j) {
      bilp.objective[problem.VarIndex(i, j)] = -problem.similarity[i][j];
    }
  }
  for (int i = 0; i < problem.num_source(); ++i) {
    BilpConstraint row;
    row.coefficients.assign(bilp.num_variables, 0.0);
    for (int j = 0; j < problem.num_target(); ++j) {
      row.coefficients[problem.VarIndex(i, j)] = 1.0;
    }
    row.relation = BilpConstraint::Relation::kLessEq;
    row.bound = 1.0;
    bilp.constraints.push_back(std::move(row));
  }
  for (int j = 0; j < problem.num_target(); ++j) {
    BilpConstraint col;
    col.coefficients.assign(bilp.num_variables, 0.0);
    for (int i = 0; i < problem.num_source(); ++i) {
      col.coefficients[problem.VarIndex(i, j)] = 1.0;
    }
    col.relation = BilpConstraint::Relation::kLessEq;
    col.bound = 1.0;
    bilp.constraints.push_back(std::move(col));
  }
  return bilp;
}

BilpProblem TxnScheduleToBilp(const TxnScheduleProblem& problem,
                              double slot_weight) {
  BilpProblem bilp;
  bilp.num_variables = problem.num_variables();
  bilp.objective.assign(bilp.num_variables, 0.0);
  for (int t = 0; t < problem.num_txns(); ++t) {
    for (int s = 0; s < problem.num_slots; ++s) {
      bilp.objective[problem.VarIndex(t, s)] = slot_weight * s;
    }
  }
  for (int t = 0; t < problem.num_txns(); ++t) {
    BilpConstraint one_slot;
    one_slot.coefficients.assign(bilp.num_variables, 0.0);
    for (int s = 0; s < problem.num_slots; ++s) {
      one_slot.coefficients[problem.VarIndex(t, s)] = 1.0;
    }
    one_slot.relation = BilpConstraint::Relation::kEq;
    one_slot.bound = 1.0;
    bilp.constraints.push_back(std::move(one_slot));
  }
  for (const auto& [a, b] : problem.ConflictPairs()) {
    for (int s = 0; s < problem.num_slots; ++s) {
      BilpConstraint no_share;
      no_share.coefficients.assign(bilp.num_variables, 0.0);
      no_share.coefficients[problem.VarIndex(a, s)] = 1.0;
      no_share.coefficients[problem.VarIndex(b, s)] = 1.0;
      no_share.relation = BilpConstraint::Relation::kLessEq;
      no_share.bound = 1.0;
      bilp.constraints.push_back(std::move(no_share));
    }
  }
  return bilp;
}

}  // namespace qopt
}  // namespace qdm
