// Network front-end throughput sweep: N client threads drive M small
// simulated-annealing jobs through a loopback qdmd server (QdmClient ->
// HTTP -> SolverService), sweeping the client count over {1, 2, 4, 8}
// against a fixed 4-worker server. Every pass re-solves the same job
// portfolio, and the sweep asserts the wire determinism contract at bench
// runtime: results are bit-identical across client counts (and therefore
// to the in-process path — tests/net_e2e_test.cc proves that leg).
//
// Each client thread's QdmClient keeps one keep-alive connection, and each
// job is two RPCs on it: the submit, then a blocking wait. The metric
// prices the full remote loop: JSON encode, HTTP parse, service
// scheduling, JSON decode, plus one TCP connect per client thread. The one
// server starts before the sweep and stops after it, outside every pass.
//
// Perf-gate metrics (scripts/perf_gate.py, timed against the parent):
//   net_jobs_per_s_t<N>  completed remote jobs/s with N client threads.
//
// Usage mirrors the other sweeps: --sweep-only --json PATH for CI.

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "qdm/anneal/qubo.h"
#include "qdm/anneal/sampler.h"
#include "qdm/anneal/solver.h"
#include "qdm/common/check.h"
#include "qdm/common/rng.h"
#include "qdm/net/client.h"
#include "qdm/net/server.h"
#include "sweep_util.h"

namespace {

using qdm::Rng;
using qdm::anneal::BitIdentical;
using qdm::anneal::Qubo;
using qdm::anneal::SampleSet;
using qdm::anneal::SolverOptions;
using qdm::net::QdmClient;
using qdm::net::QdmServer;
using qdm::net::ServerConfig;

// Enough jobs that the fastest pass (8 clients, about 5,300 jobs/s on a
// 4-vCPU VM) lasts over 100 ms.
constexpr int kJobs = 640;
constexpr int kVariables = 24;
constexpr int kServerWorkers = 4;

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

// One timed pass: `clients` client threads splitting kJobs round-robin
// against the server on `port`, each job a full remote Solve (submit +
// wait). Results land in job order, so passes compare index by index.
std::vector<SampleSet> RunPass(int port, int clients) {
  std::vector<SampleSet> results(kJobs);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&results, port, c, clients] {
      QdmClient client(port);
      for (int j = c; j < kJobs; j += clients) {
        auto result =
            client.Solve("simulated_annealing", MakeQubo(kVariables, 17 + j),
                         JobOptions(1000 + j));
        QDM_CHECK(result.ok()) << result.status();
        results[j] = std::move(*result);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  return results;
}

}  // namespace

int main(int argc, char** argv) {
  const qdm_bench::SweepFlags flags = qdm_bench::ParseSweepFlags(argc, argv);

  // The server's config does not depend on the client count, so one
  // server serves every pass.
  ServerConfig config;
  config.port = 0;
  config.service.num_workers = kServerWorkers;
  config.service.max_queue_depth = 0;  // Unbounded: the bench never sheds.
  auto server = QdmServer::Start(config);
  QDM_CHECK(server.ok()) << server.status();
  const int port = (*server)->port();

  qdm_bench::RunThreadSweep<std::vector<SampleSet>>(
      "Network front-end throughput (loopback qdmd, 4 server workers, "
      "640 remote simulated-annealing jobs, 24 variables)",
      kJobs, "jobs/s", [port](int clients) { return RunPass(port, clients); },
      [](const std::vector<SampleSet>& a, const std::vector<SampleSet>& b) {
        return std::equal(a.begin(), a.end(), b.begin(), b.end(), BitIdentical);
      },
      "net_jobs_per_s", flags);
  (*server)->Stop();
  return 0;
}
