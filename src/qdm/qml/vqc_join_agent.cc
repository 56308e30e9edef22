#include "qdm/qml/vqc_join_agent.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "qdm/circuit/circuit.h"
#include "qdm/common/check.h"
#include "qdm/sim/statevector.h"

namespace qdm {
namespace qml {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
}  // namespace

VqcJoinOrderAgent::VqcJoinOrderAgent(const db::JoinGraph& graph,
                                     Options options, Rng* rng)
    : graph_(graph), options_(options), rng_(rng), n_(graph.num_relations()) {
  QDM_CHECK(rng != nullptr);
  QDM_CHECK_GE(n_, 2);
  QDM_CHECK_LE(n_, 12) << "VQC agent simulates one qubit per relation";
  parameters_.resize((options_.layers + 1) * n_);
  for (double& p : parameters_) p = rng_->Uniform(-0.1, 0.1);

  // Normalize rewards by the worst log-cardinality over ALL prefixes so a
  // single-step reward lies in [-1, 0].
  reward_scale_ = 1.0;
  for (uint32_t mask = 1; mask < (uint32_t{1} << n_); ++mask) {
    reward_scale_ =
        std::max(reward_scale_, std::log(graph_.SubsetCardinality(mask) + 2.0));
  }
}

double VqcJoinOrderAgent::QValue(uint32_t state_mask, int action,
                                 const std::vector<double>& params) const {
  circuit::Circuit c(n_);
  // Basis encoding of the state: joined relations get RY(pi).
  for (int q = 0; q < n_; ++q) {
    if (state_mask & (uint32_t{1} << q)) c.RY(q, M_PI);
  }
  int p = 0;
  for (int q = 0; q < n_; ++q) c.RY(q, params[p++]);
  for (int layer = 0; layer < options_.layers; ++layer) {
    for (int q = 0; q + 1 < n_; ++q) c.CZ(q, q + 1);
    for (int q = 0; q < n_; ++q) c.RY(q, params[p++]);
  }
  sim::Statevector sv = sim::RunCircuit(c);
  // <Z_action> = 1 - 2 P(action = 1), rescaled to the return range.
  const double z = 1.0 - 2.0 * sv.ProbabilityOfOne(action);
  return z / (1.0 - options_.gamma);
}

std::vector<double> VqcJoinOrderAgent::QValues(uint32_t state_mask) const {
  std::vector<double> q(n_, kNegInf);
  for (int a = 0; a < n_; ++a) {
    if (state_mask & (uint32_t{1} << a)) continue;
    q[a] = QValue(state_mask, a, parameters_);
  }
  return q;
}

double VqcJoinOrderAgent::StepReward(uint32_t state_mask, int relation) const {
  const uint32_t next = state_mask | (uint32_t{1} << relation);
  if (state_mask == 0) return 0.0;  // Picking the first relation is free.
  return -std::log(graph_.SubsetCardinality(next)) / reward_scale_;
}

std::vector<double> VqcJoinOrderAgent::ParameterShiftGradient(
    uint32_t state_mask, int action) const {
  std::vector<double> grad(parameters_.size(), 0.0);
  std::vector<double> shifted = parameters_;
  for (size_t k = 0; k < parameters_.size(); ++k) {
    shifted[k] = parameters_[k] + M_PI / 2;
    const double plus = QValue(state_mask, action, shifted);
    shifted[k] = parameters_[k] - M_PI / 2;
    const double minus = QValue(state_mask, action, shifted);
    shifted[k] = parameters_[k];
    grad[k] = (plus - minus) / 2.0;
  }
  return grad;
}

double VqcJoinOrderAgent::TrainEpisode(double epsilon) {
  uint32_t state = 0;
  double episode_cost = 0.0;
  std::vector<int> visited_order;
  for (int step = 0; step < n_; ++step) {
    // Choose an action epsilon-greedily among unjoined relations.
    std::vector<int> available;
    for (int a = 0; a < n_; ++a) {
      if (!(state & (uint32_t{1} << a))) available.push_back(a);
    }
    QDM_CHECK(!available.empty());
    int action;
    if (rng_->Bernoulli(epsilon)) {
      action = available[rng_->UniformInt(0, available.size() - 1)];
    } else {
      std::vector<double> q = QValues(state);
      action = available[0];
      for (int a : available) {
        if (q[a] > q[action]) action = a;
      }
    }

    const double reward = StepReward(state, action);
    const uint32_t next = state | (uint32_t{1} << action);
    visited_order.push_back(action);
    if (state != 0) {
      episode_cost += std::log(graph_.SubsetCardinality(next));
    }

    // One-step TD target.
    double target = reward;
    if (next != (uint32_t{1} << n_) - 1) {
      const std::vector<double> next_q = QValues(next);
      double best_next = kNegInf;
      for (double v : next_q) best_next = std::max(best_next, v);
      target += options_.gamma * best_next;
    }

    const double prediction = QValue(state, action, parameters_);
    const double td_error = prediction - target;
    const std::vector<double> grad = ParameterShiftGradient(state, action);
    for (size_t k = 0; k < parameters_.size(); ++k) {
      parameters_[k] -= options_.learning_rate * td_error * grad[k];
    }
    state = next;
  }
  if (episode_cost < best_visited_cost_) {
    best_visited_cost_ = episode_cost;
    best_visited_order_ = visited_order;
  }
  return episode_cost;
}

VqcJoinOrderAgent::TrainingStats VqcJoinOrderAgent::Train() {
  TrainingStats stats;
  const int episodes = options_.episodes;
  for (int e = 0; e < episodes; ++e) {
    // Linear epsilon decay to a small exploration floor.
    const double epsilon =
        options_.epsilon * (1.0 - static_cast<double>(e) / episodes) + 0.02;
    stats.episode_costs.push_back(TrainEpisode(epsilon));
  }
  const int window = std::max(1, episodes / 5);
  double initial = 0.0, final_sum = 0.0;
  for (int e = 0; e < window; ++e) initial += stats.episode_costs[e];
  for (int e = episodes - window; e < episodes; ++e) {
    final_sum += stats.episode_costs[e];
  }
  stats.initial_window_mean = initial / window;
  stats.final_window_mean = final_sum / window;
  return stats;
}

std::vector<int> VqcJoinOrderAgent::GreedyOrder() const {
  std::vector<int> order;
  uint32_t state = 0;
  for (int step = 0; step < n_; ++step) {
    std::vector<double> q = QValues(state);
    int best = -1;
    for (int a = 0; a < n_; ++a) {
      if (state & (uint32_t{1} << a)) continue;
      if (best == -1 || q[a] > q[best]) best = a;
    }
    order.push_back(best);
    state |= uint32_t{1} << best;
  }
  return order;
}

}  // namespace qml
}  // namespace qdm
