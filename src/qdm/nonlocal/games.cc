#include "qdm/nonlocal/games.h"

#include <array>
#include <cmath>

#include "qdm/circuit/circuit.h"
#include "qdm/common/check.h"

namespace qdm {
namespace nonlocal {

using circuit::GateKind;
using circuit::SingleQubitMatrix;
using linalg::Matrix;

TwoPlayerGame ChshGame() {
  TwoPlayerGame game;
  game.name = "CHSH";
  game.num_inputs = 2;
  game.predicate = [](int x, int y, int a, int b) {
    return ((x == 1 && y == 1) ? 1 : 0) == (a ^ b);
  };
  return game;
}

double ClassicalValueTwoPlayer(const TwoPlayerGame& game) {
  const int k = game.num_inputs;
  QDM_CHECK_LE(k, 16);
  const uint32_t num_strategies = uint32_t{1} << k;  // Bit s of strategy =
                                                     // answer to input s.
  double best = 0.0;
  for (uint32_t sa = 0; sa < num_strategies; ++sa) {
    for (uint32_t sb = 0; sb < num_strategies; ++sb) {
      int wins = 0;
      for (int x = 0; x < k; ++x) {
        for (int y = 0; y < k; ++y) {
          const int a = (sa >> x) & 1;
          const int b = (sb >> y) & 1;
          if (game.predicate(x, y, a, b)) ++wins;
        }
      }
      best = std::max(best, static_cast<double>(wins) / (k * k));
    }
  }
  return best;
}

Matrix MeasureInXZPlane(double theta) {
  return SingleQubitMatrix(GateKind::kRY, {-theta});
}

Matrix MeasureX() {
  return SingleQubitMatrix(GateKind::kH, {});
}

Matrix MeasureY() {
  return SingleQubitMatrix(GateKind::kH, {}) *
         SingleQubitMatrix(GateKind::kSdg, {});
}

namespace {

sim::Statevector BellPhiPlus() {
  circuit::Circuit c(2);
  c.H(0).CX(0, 1);
  return sim::RunCircuit(c);
}

sim::Statevector GhzState() {
  circuit::Circuit c(3);
  c.H(0).CX(0, 1).CX(0, 2);
  return sim::RunCircuit(c);
}

}  // namespace

TwoPlayerQuantumStrategy OptimalChshStrategy() {
  TwoPlayerQuantumStrategy strategy;
  strategy.shared_state = BellPhiPlus();
  strategy.alice_rotations = {MeasureInXZPlane(0.0),
                              MeasureInXZPlane(M_PI / 2)};
  strategy.bob_rotations = {MeasureInXZPlane(M_PI / 4),
                            MeasureInXZPlane(-M_PI / 4)};
  return strategy;
}

double QuantumValueTwoPlayer(const TwoPlayerGame& game,
                             const TwoPlayerQuantumStrategy& strategy) {
  QDM_CHECK_EQ(strategy.alice_rotations.size(),
               static_cast<size_t>(game.num_inputs));
  QDM_CHECK_EQ(strategy.bob_rotations.size(),
               static_cast<size_t>(game.num_inputs));
  double total = 0.0;
  for (int x = 0; x < game.num_inputs; ++x) {
    for (int y = 0; y < game.num_inputs; ++y) {
      sim::Statevector state = strategy.shared_state;
      state.Apply1Q(strategy.alice_rotations[x], 0);
      state.Apply1Q(strategy.bob_rotations[y], 1);
      for (uint64_t outcome = 0; outcome < 4; ++outcome) {
        const int a = outcome & 1;
        const int b = (outcome >> 1) & 1;
        if (game.predicate(x, y, a, b)) {
          total += std::norm(state.amplitude(outcome));
        }
      }
    }
  }
  return total / (game.num_inputs * game.num_inputs);
}

double PlayTwoPlayerGame(const TwoPlayerGame& game,
                         const TwoPlayerQuantumStrategy& strategy, int rounds,
                         Rng* rng) {
  QDM_CHECK_GT(rounds, 0);
  int wins = 0;
  for (int round = 0; round < rounds; ++round) {
    const int x = static_cast<int>(rng->UniformInt(0, game.num_inputs - 1));
    const int y = static_cast<int>(rng->UniformInt(0, game.num_inputs - 1));
    sim::Statevector state = strategy.shared_state;
    state.Apply1Q(strategy.alice_rotations[x], 0);
    state.Apply1Q(strategy.bob_rotations[y], 1);
    const uint64_t outcome = state.SampleBasisState(rng);
    const int a = outcome & 1;
    const int b = (outcome >> 1) & 1;
    if (game.predicate(x, y, a, b)) ++wins;
  }
  return static_cast<double>(wins) / rounds;
}

algo::OptimizationResult OptimizeXZAngles(const TwoPlayerGame& game,
                                          int restarts, Rng* rng) {
  QDM_CHECK_GT(restarts, 0);
  const int k = game.num_inputs;
  algo::Objective objective = [&](const std::vector<double>& angles) {
    TwoPlayerQuantumStrategy strategy;
    strategy.shared_state = BellPhiPlus();
    for (int x = 0; x < k; ++x) {
      strategy.alice_rotations.push_back(MeasureInXZPlane(angles[x]));
    }
    for (int y = 0; y < k; ++y) {
      strategy.bob_rotations.push_back(MeasureInXZPlane(angles[k + y]));
    }
    return -QuantumValueTwoPlayer(game, strategy);
  };

  algo::NelderMead optimizer;
  algo::OptimizationResult best;
  best.value = 1e300;
  for (int r = 0; r < restarts; ++r) {
    std::vector<double> initial(2 * k);
    for (double& a : initial) a = rng->Uniform(-M_PI, M_PI);
    algo::OptimizationResult run = optimizer.Minimize(objective, initial, rng);
    if (run.value < best.value) best = run;
  }
  return best;
}

ThreePlayerGame GhzGame() {
  ThreePlayerGame game;
  game.name = "GHZ";
  game.questions = {{0, 0, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 0}};
  game.predicate = [](const std::array<int, 3>& q, int a, int b, int c) {
    const int want = (q[0] | q[1] | q[2]);
    return (a ^ b ^ c) == want;
  };
  return game;
}

double ClassicalValueThreePlayer(const ThreePlayerGame& game) {
  // Deterministic strategy per player: a map from the player's input bit to
  // an answer bit (4 options per player).
  double best = 0.0;
  for (uint32_t s0 = 0; s0 < 4; ++s0) {
    for (uint32_t s1 = 0; s1 < 4; ++s1) {
      for (uint32_t s2 = 0; s2 < 4; ++s2) {
        int wins = 0;
        for (const auto& q : game.questions) {
          const int a = (s0 >> q[0]) & 1;
          const int b = (s1 >> q[1]) & 1;
          const int c = (s2 >> q[2]) & 1;
          if (game.predicate(q, a, b, c)) ++wins;
        }
        best =
            std::max(best, static_cast<double>(wins) / game.questions.size());
      }
    }
  }
  return best;
}

ThreePlayerQuantumStrategy OptimalGhzStrategy() {
  ThreePlayerQuantumStrategy strategy;
  strategy.shared_state = GhzState();
  strategy.rotations.assign(3, {MeasureX(), MeasureY()});
  return strategy;
}

double QuantumValueThreePlayer(const ThreePlayerGame& game,
                               const ThreePlayerQuantumStrategy& strategy) {
  QDM_CHECK_EQ(strategy.rotations.size(), 3u);
  double total = 0.0;
  for (const auto& q : game.questions) {
    sim::Statevector state = strategy.shared_state;
    for (int player = 0; player < 3; ++player) {
      QDM_CHECK_LT(static_cast<size_t>(q[player]),
                   strategy.rotations[player].size());
      state.Apply1Q(strategy.rotations[player][q[player]], player);
    }
    for (uint64_t outcome = 0; outcome < 8; ++outcome) {
      const int a = outcome & 1;
      const int b = (outcome >> 1) & 1;
      const int c = (outcome >> 2) & 1;
      if (game.predicate(q, a, b, c)) {
        total += std::norm(state.amplitude(outcome));
      }
    }
  }
  return total / game.questions.size();
}

double PlayThreePlayerGame(const ThreePlayerGame& game,
                           const ThreePlayerQuantumStrategy& strategy,
                           int rounds, Rng* rng) {
  QDM_CHECK_GT(rounds, 0);
  int wins = 0;
  for (int round = 0; round < rounds; ++round) {
    const auto& q = game.questions[rng->UniformInt(
        0, static_cast<int64_t>(game.questions.size()) - 1)];
    sim::Statevector state = strategy.shared_state;
    for (int player = 0; player < 3; ++player) {
      state.Apply1Q(strategy.rotations[player][q[player]], player);
    }
    const uint64_t outcome = state.SampleBasisState(rng);
    if (game.predicate(q, outcome & 1, (outcome >> 1) & 1,
                       (outcome >> 2) & 1)) {
      ++wins;
    }
  }
  return static_cast<double>(wins) / rounds;
}

}  // namespace nonlocal
}  // namespace qdm
