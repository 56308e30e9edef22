#ifndef QDM_QML_VQC_JOIN_AGENT_H_
#define QDM_QML_VQC_JOIN_AGENT_H_

#include <cstdint>
#include <vector>

#include "qdm/common/rng.h"
#include "qdm/db/join_graph.h"
#include "qdm/db/join_tree.h"

namespace qdm {
namespace qml {

/// Join ordering as reinforcement learning with a variational quantum
/// circuit value function, after Winker et al. [BiDEDE'23]:
///
///  * MDP: a state is the set of already-joined relations (left-deep
///    prefix); an action appends one unjoined relation; the reward is the
///    negative normalized log-cardinality of the new intermediate result.
///  * Q-function: an n-qubit VQC. The state enters as per-qubit RY basis
///    encodings (pi for joined relations); `layers` alternations of
///    entangling CZ chains and trainable RY rotations follow; Q(s, a) is the
///    rescaled <Z> expectation on qubit a.
///  * Training: epsilon-greedy episodes with one-step TD targets; gradients
///    via the exact parameter-shift rule (each RY parameter differentiated
///    with +-pi/2 shifts).
class VqcJoinOrderAgent {
 public:
  struct Options {
    int layers = 2;
    double gamma = 0.7;     // Discount.
    double epsilon = 0.25;  // Exploration rate (decays over training).
    double learning_rate = 0.08;
    int episodes = 150;
  };

  VqcJoinOrderAgent(const db::JoinGraph& graph, Options options, Rng* rng);

  int num_parameters() const { return static_cast<int>(parameters_.size()); }
  const std::vector<double>& parameters() const { return parameters_; }

  /// Q(s, a) for every relation a (joined relations get -infinity so argmax
  /// never picks them).
  std::vector<double> QValues(uint32_t state_mask) const;

  /// Plays one epsilon-greedy episode, updating parameters after each step.
  /// Returns the episode's total C_out-proxy cost (sum of log-cardinalities).
  double TrainEpisode(double epsilon);

  struct TrainingStats {
    std::vector<double> episode_costs;  // Learning curve.
    double initial_window_mean = 0.0;   // Mean cost of the first episodes.
    double final_window_mean = 0.0;     // Mean cost of the last episodes.
  };

  /// Runs Options::episodes episodes with linearly decaying epsilon.
  TrainingStats Train();

  /// The greedy (epsilon = 0) join order under the current Q-function.
  /// NOTE: TD training with a VQC is noisy (as Winker et al. observe); the
  /// practical plan an operator would deploy is BestVisitedOrder().
  std::vector<int> GreedyOrder() const;

  /// The lowest-cost order encountered across all training episodes.
  const std::vector<int>& BestVisitedOrder() const {
    return best_visited_order_;
  }
  double BestVisitedCost() const { return best_visited_cost_; }

  /// Exact parameter-shift gradient of Q(state, action) -- exposed for the
  /// gradient-correctness property test.
  std::vector<double> ParameterShiftGradient(uint32_t state_mask,
                                             int action) const;

 private:
  double QValue(uint32_t state_mask, int action,
                const std::vector<double>& params) const;
  /// Normalized step reward for appending `relation` to `state_mask`.
  double StepReward(uint32_t state_mask, int relation) const;

  const db::JoinGraph& graph_;
  Options options_;
  Rng* rng_;
  int n_;
  double reward_scale_;  // Normalizes log-cardinalities into ~[-1, 0].
  std::vector<double> parameters_;
  std::vector<int> best_visited_order_;
  double best_visited_cost_ = 1e300;
};

}  // namespace qml
}  // namespace qdm

#endif  // QDM_QML_VQC_JOIN_AGENT_H_
