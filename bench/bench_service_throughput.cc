// Async solver service throughput sweep. Drives the SolverService with a
// fixed portfolio of small simulated-annealing jobs submitted from two
// producer threads, sweeping the service worker cap over {1, 2, 4, 8}, and
// asserts the determinism contract at bench runtime: every job's async
// SampleSet is bit-identical to the 1-worker reference batch (which itself
// matches the synchronous path — service_test.cc proves that leg).
//
// Perf-gate metrics (scripts/perf_gate.py, timed against the parent):
//   service_jobs_per_s_t<W>  completed jobs/s with W service workers.
//
// Usage mirrors the other sweeps: --sweep-only --json PATH for CI.

#include <algorithm>
#include <thread>
#include <vector>

#include "qdm/anneal/qubo.h"
#include "qdm/anneal/sampler.h"
#include "qdm/anneal/solver.h"
#include "qdm/common/check.h"
#include "qdm/common/rng.h"
#include "qdm/service/solver_service.h"
#include "sweep_util.h"

namespace {

using qdm::Rng;
using qdm::anneal::BitIdentical;
using qdm::anneal::Qubo;
using qdm::anneal::SampleSet;
using qdm::anneal::SolverOptions;
using qdm::service::JobId;
using qdm::service::ServiceConfig;
using qdm::service::ServiceStats;
using qdm::service::SolverService;

// Enough jobs that the fastest pass (4 or 8 workers, about 12,500 jobs/s
// on a 4-vCPU VM) lasts over 100 ms.
constexpr int kJobs = 1536;
constexpr int kProducers = 2;
constexpr int kVariables = 24;

Qubo MakeQubo(int num_variables, uint64_t seed) {
  Rng rng(seed);
  Qubo qubo(num_variables);
  for (int i = 0; i < num_variables; ++i) {
    qubo.AddLinear(i, rng.Uniform(-1, 1));
    for (int j = i + 1; j < num_variables; ++j) {
      qubo.AddQuadratic(i, j, rng.Uniform(-1, 1));
    }
  }
  return qubo;
}

SolverOptions JobOptions(uint64_t seed) {
  SolverOptions options;
  options.num_reads = 4;
  options.num_sweeps = 200;
  options.seed = seed;
  return options;
}

// One timed pass: kProducers threads submit kJobs jobs into a service with
// `workers` worker tasks, then every job is awaited. Returns the results in
// job order (independent of completion order, by construction of the ids).
std::vector<SampleSet> RunPass(int workers) {
  SolverService service(ServiceConfig{workers, /*max_queue_depth=*/0, 0});
  std::vector<JobId> ids(kJobs);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&service, &ids, p] {
      for (int j = p; j < kJobs; j += kProducers) {
        auto submitted =
            service.Submit("simulated_annealing", MakeQubo(kVariables, 17 + j),
                           JobOptions(1000 + j));
        QDM_CHECK(submitted.ok()) << submitted.status();
        ids[j] = submitted->id;
      }
    });
  }
  for (auto& producer : producers) producer.join();

  std::vector<SampleSet> results;
  results.reserve(kJobs);
  for (int j = 0; j < kJobs; ++j) {
    auto result = service.Wait(ids[j]);
    QDM_CHECK(result.ok()) << result.status();
    QDM_CHECK(result->size() == 1);
    results.push_back(std::move((*result)[0]));
  }

  const ServiceStats stats = service.stats();
  QDM_CHECK(stats.submitted == static_cast<uint64_t>(kJobs));
  QDM_CHECK(stats.completed == static_cast<uint64_t>(kJobs));
  QDM_CHECK(stats.queued + stats.running + stats.completed + stats.cancelled +
                stats.deadline_exceeded ==
            stats.submitted)
      << "stats conservation violated";
  return results;
}

}  // namespace

int main(int argc, char** argv) {
  const qdm_bench::SweepFlags flags = qdm_bench::ParseSweepFlags(argc, argv);

  qdm_bench::RunThreadSweep<std::vector<SampleSet>>(
      "Async solver service throughput "
      "(2 producers x 1536 simulated-annealing jobs, 24 variables)",
      kJobs, "jobs/s", [](int workers) { return RunPass(workers); },
      [](const std::vector<SampleSet>& a, const std::vector<SampleSet>& b) {
        return std::equal(a.begin(), a.end(), b.begin(), b.end(), BitIdentical);
      },
      "service_jobs_per_s", flags);
  return 0;
}
