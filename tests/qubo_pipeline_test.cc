// qopt::QuboPipeline as the extension seam: a brand-new QUBO workload gets
// single-shot AND batched registry-dispatched entry points from nothing but
// an encoder and a decoder lambda. Also pins the semantics every adapter
// inherits: derived per-instance seeds, thread-count invariance, batch error
// framing, and "race:*" portfolio names flowing through unchanged.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "qdm/anneal/solver.h"
#include "qdm/qopt/qubo_pipeline.h"

namespace qdm {
namespace qopt {
namespace {

/// The whole "application": pick exactly one of n weighted items, minimize
/// the weight. Everything below TinyPipeline is test scaffolding — the
/// adapter itself is the ~15 lines the pipeline promises.
struct PickOneProblem {
  std::vector<double> weights;
};

struct PickOneSolution {
  int chosen = -1;
  bool feasible = false;
};

anneal::Qubo PickOneToQubo(const PickOneProblem& problem) {
  const int n = static_cast<int>(problem.weights.size());
  anneal::Qubo qubo(n);
  double penalty = 1.0;
  std::vector<int> vars(n);
  for (int i = 0; i < n; ++i) {
    qubo.AddLinear(i, problem.weights[i]);
    penalty += std::abs(problem.weights[i]);
    vars[i] = i;
  }
  qubo.AddExactlyOnePenalty(vars, penalty);
  return qubo;
}

QuboPipeline<PickOneProblem, PickOneSolution> TinyPipeline(
    const std::string& solver_name) {
  return QuboPipeline<PickOneProblem, PickOneSolution>(
      solver_name, PickOneToQubo,
      [](const PickOneProblem& problem, const anneal::Sample& best) {
        PickOneSolution solution;
        for (size_t i = 0; i < problem.weights.size(); ++i) {
          if (!best.assignment[i]) continue;
          if (solution.chosen >= 0) return PickOneSolution{};  // Two picks.
          solution.chosen = static_cast<int>(i);
        }
        solution.feasible = solution.chosen >= 0;
        return solution;
      });
}

int ArgMin(const std::vector<double>& weights) {
  return static_cast<int>(std::min_element(weights.begin(), weights.end()) -
                          weights.begin());
}

anneal::SolverOptions FastOptions(uint64_t seed) {
  anneal::SolverOptions options;
  options.num_reads = 5;
  options.num_sweeps = 300;
  options.max_iterations = 100;
  options.seed = seed;
  return options;
}

std::vector<PickOneProblem> ProblemBatch() {
  return {{{3.0, 1.0, 2.0}},
          {{-1.0, 4.0, 0.5, 2.0}},
          {{5.0, 5.0, 4.5}},
          {{0.25, 0.75, -0.5, 1.5}}};
}

TEST(QuboPipelineTest, RunDecodesTheOptimum) {
  for (const std::string solver : {"exact", "simulated_annealing"}) {
    for (const PickOneProblem& problem : ProblemBatch()) {
      auto solution = TinyPipeline(solver).Run(problem, FastOptions(3));
      ASSERT_TRUE(solution.ok()) << solver << ": " << solution.status();
      EXPECT_TRUE(solution->feasible) << solver;
      EXPECT_EQ(solution->chosen, ArgMin(problem.weights)) << solver;
    }
  }
}

TEST(QuboPipelineTest, RunBatchIsThreadCountInvariant) {
  const std::vector<PickOneProblem> problems = ProblemBatch();
  const auto pipeline = TinyPipeline("simulated_annealing");
  auto one = pipeline.RunBatch(problems, FastOptions(7), 1);
  ASSERT_TRUE(one.ok()) << one.status();
  ASSERT_EQ(one->size(), problems.size());
  for (int threads : {2, 8}) {
    auto many = pipeline.RunBatch(problems, FastOptions(7), threads);
    ASSERT_TRUE(many.ok()) << many.status();
    for (size_t i = 0; i < problems.size(); ++i) {
      EXPECT_EQ((*many)[i].chosen, (*one)[i].chosen)
          << threads << " threads, instance " << i;
    }
  }
}

TEST(QuboPipelineTest, BatchInstanceMatchesSingleRunWithDerivedSeed) {
  const std::vector<PickOneProblem> problems = ProblemBatch();
  const auto pipeline = TinyPipeline("simulated_annealing");
  const anneal::SolverOptions options = FastOptions(40);
  auto batch = pipeline.RunBatch(problems, options, 2);
  ASSERT_TRUE(batch.ok()) << batch.status();
  for (size_t i = 0; i < problems.size(); ++i) {
    auto solo =
        pipeline.Run(problems[i], anneal::DeriveBatchOptions(options, i));
    ASSERT_TRUE(solo.ok()) << solo.status();
    EXPECT_EQ((*batch)[i].chosen, solo->chosen) << "instance " << i;
  }
}

TEST(QuboPipelineTest, UnknownSolverNameIsNotFound) {
  auto solution =
      TinyPipeline("warp_drive").Run(ProblemBatch()[0], FastOptions(1));
  ASSERT_FALSE(solution.ok());
  EXPECT_EQ(solution.status().code(), StatusCode::kNotFound);
}

TEST(QuboPipelineTest, BatchFailureNamesTheInstanceButBatchOfOneStaysBare) {
  // Instance 1 exceeds the exact solver's 30-variable limit.
  std::vector<PickOneProblem> problems = ProblemBatch();
  problems[1].weights.assign(31, 1.0);
  auto batch = TinyPipeline("exact").RunBatch(problems, FastOptions(2), 2);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(batch.status().message().find("batch instance 1"),
            std::string::npos)
      << batch.status().message();

  auto single = TinyPipeline("exact").Run(problems[1], FastOptions(2));
  ASSERT_FALSE(single.ok());
  EXPECT_EQ(single.status().message().find("batch instance"), std::string::npos)
      << single.status().message();
}

TEST(QuboPipelineTest, PortfolioNamesFlowThroughThePipeline) {
  // "race:*" is just another registry name to the pipeline — and stays
  // deterministic through RunBatch at any thread count.
  const std::vector<PickOneProblem> problems = ProblemBatch();
  const auto pipeline = TinyPipeline("race:simulated_annealing+tabu_search");
  auto one = pipeline.RunBatch(problems, FastOptions(21), 1);
  ASSERT_TRUE(one.ok()) << one.status();
  for (size_t i = 0; i < problems.size(); ++i) {
    EXPECT_EQ((*one)[i].chosen, ArgMin(problems[i].weights))
        << "instance " << i;
  }
  for (int threads : {2, 8}) {
    auto many = pipeline.RunBatch(problems, FastOptions(21), threads);
    ASSERT_TRUE(many.ok()) << many.status();
    for (size_t i = 0; i < problems.size(); ++i) {
      EXPECT_EQ((*many)[i].chosen, (*one)[i].chosen)
          << threads << " threads, instance " << i;
    }
  }
}

}  // namespace
}  // namespace qopt
}  // namespace qdm
