// Concurrency battery for the async solver service, part 2: the stress
// tier. Multi-producer submission storms, nested fan-out (batch jobs, race
// jobs, and gate-bridge kernels that all re-enter the one shared
// ThreadPool) without deadlock, cancellation storms mid-queue and mid-run,
// deadline-exceeded jobs never resolving kOk, and stats conservation
// sampled continuously under load. Companion to service_test.cc (the
// semantics tier); both run under TSan in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "qdm/anneal/qubo.h"
#include "qdm/anneal/sampler.h"
#include "qdm/anneal/solver.h"
#include "qdm/common/rng.h"
#include "qdm/common/status.h"
#include "qdm/common/thread_pool.h"
#include "qdm/service/solver_service.h"

namespace qdm {
namespace service {
namespace {

using anneal::BitIdentical;
using anneal::Qubo;
using anneal::SampleSet;
using anneal::SolverOptions;
using std::chrono::milliseconds;

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

SolverOptions FastOptions(uint64_t seed) {
  SolverOptions options;
  options.num_reads = 2;
  options.num_sweeps = 30;
  options.max_iterations = 30;
  options.layers = 1;
  options.restarts = 1;
  options.seed = seed;
  return options;
}

// Stress-tier gate (independent of the one in service_test.cc — test
// binaries are separate processes, but the registry key must still be
// unique to this file).
class StressGate {
 public:
  static StressGate& Get() {
    static StressGate* gate = new StressGate();
    return *gate;
  }

  void Close() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = false;
  }

  void Open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

  void BlockUntilOpen() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++started_;
    }
    started_cv_.notify_all();
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return open_; });
  }

  void WaitForStarted(int at_least) {
    std::unique_lock<std::mutex> lock(mutex_);
    started_cv_.wait(lock, [&] { return started_ >= at_least; });
  }

  int started() {
    std::lock_guard<std::mutex> lock(mutex_);
    return started_;
  }

  void ResetStarted() {
    std::lock_guard<std::mutex> lock(mutex_);
    started_ = 0;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable started_cv_;
  bool open_ = true;
  int started_ = 0;
};

class StressBlockingSolver : public anneal::QuboSolver {
 public:
  Result<SampleSet> Solve(const Qubo& qubo,
                          const SolverOptions& options) override {
    StressGate::Get().BlockUntilOpen();
    return anneal::SolveWith("simulated_annealing", qubo, options);
  }
  std::string name() const override { return "stress_blocking"; }
};

// A backend that itself fans a batch out through SolveBatchParallel on the
// SAME shared pool the service drains from — the nesting that would
// deadlock a pool whose ForEach did not let the caller participate.
class NestedBatchSolver : public anneal::QuboSolver {
 public:
  Result<SampleSet> Solve(const Qubo& qubo,
                          const SolverOptions& options) override {
    std::vector<Qubo> inner(3, qubo);
    auto batch = anneal::SolveBatchParallel("simulated_annealing", inner,
                                            options, /*num_threads=*/0);
    if (!batch.ok()) return batch.status();
    return (*batch)[0];
  }
  std::string name() const override { return "stress_nested_batch"; }
};

bool RegisterStressSolvers() {
  auto& registry = anneal::SolverRegistry::Global();
  registry
      .Register("stress_blocking",
                [] { return std::make_unique<StressBlockingSolver>(); })
      .ok();
  registry
      .Register("stress_nested_batch",
                [] { return std::make_unique<NestedBatchSolver>(); })
      .ok();
  return true;
}

const bool kStressSolversRegistered = RegisterStressSolvers();

void ExpectConserved(const ServiceStats& stats) {
  EXPECT_EQ(stats.queued + stats.running + stats.completed + stats.cancelled +
                stats.deadline_exceeded,
            stats.submitted)
      << "queued=" << stats.queued << " running=" << stats.running
      << " completed=" << stats.completed << " cancelled=" << stats.cancelled
      << " deadline_exceeded=" << stats.deadline_exceeded
      << " submitted=" << stats.submitted;
}

// ---------------------------------------------------------------------------
// Multi-producer storm: N producer threads x M jobs each, mixing Submit /
// SubmitBatch / race submits, every result checked against its sync twin,
// stats sampled concurrently and conserved at every instant.
// ---------------------------------------------------------------------------

TEST(ServiceStressTest, ProducersTimesJobsAllMatchSync) {
  constexpr int kProducers = 4;
  constexpr int kJobsPerProducer = 24;
  SolverService service(ServiceConfig{2, /*max_queue_depth=*/0, 0});

  struct PendingSingle {
    JobId id;
    SampleSet expected;
  };
  struct PendingBatch {
    JobId id;
    std::vector<SampleSet> expected;
  };
  std::mutex pending_mutex;
  std::vector<PendingSingle> singles;
  std::vector<PendingBatch> batches;
  std::atomic<bool> failed{false};

  // Concurrent stats sampler: conservation must hold in EVERY snapshot,
  // not just at quiescence.
  std::atomic<bool> sampling{true};
  std::thread sampler([&] {
    while (sampling.load()) {
      ExpectConserved(service.stats());
      std::this_thread::sleep_for(milliseconds(1));
    }
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int j = 0; j < kJobsPerProducer; ++j) {
        const uint64_t seed = 1000 + p * 100 + j;
        const Qubo qubo = MakeQubo(3 + (j % 4), seed);
        const SolverOptions options = FastOptions(seed);
        switch (j % 3) {
          case 0: {
            auto sync = anneal::SolveWith("simulated_annealing", qubo, options);
            ASSERT_TRUE(sync.ok()) << sync.status();
            auto submitted =
                service.Submit("simulated_annealing", qubo, options);
            ASSERT_TRUE(submitted.ok()) << submitted.status();
            std::lock_guard<std::mutex> lock(pending_mutex);
            singles.push_back({submitted->id, *sync});
            break;
          }
          case 1: {
            std::vector<Qubo> qubos = {qubo, MakeQubo(4, seed + 7)};
            auto sync = anneal::SolveBatchParallel("simulated_annealing", qubos,
                                                   options, 1);
            ASSERT_TRUE(sync.ok()) << sync.status();
            auto submitted =
                service.SubmitBatch("simulated_annealing", qubos, options);
            ASSERT_TRUE(submitted.ok()) << submitted.status();
            std::lock_guard<std::mutex> lock(pending_mutex);
            batches.push_back({submitted->id, *sync});
            break;
          }
          case 2: {
            auto sync = anneal::SolveWith(
                "race:simulated_annealing+tabu_search", qubo, options);
            ASSERT_TRUE(sync.ok()) << sync.status();
            auto submitted = service.Submit(
                "race:simulated_annealing+tabu_search", qubo, options);
            ASSERT_TRUE(submitted.ok()) << submitted.status();
            std::lock_guard<std::mutex> lock(pending_mutex);
            singles.push_back({submitted->id, *sync});
            break;
          }
        }
      }
    });
  }
  for (auto& producer : producers) producer.join();
  ASSERT_FALSE(failed.load());

  ASSERT_EQ(singles.size() + batches.size(),
            static_cast<size_t>(kProducers * kJobsPerProducer));
  for (const auto& pending : singles) {
    auto result = service.Wait(pending.id);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(result->size(), 1u);
    EXPECT_TRUE(BitIdentical((*result)[0], pending.expected))
        << "job " << pending.id << " diverged from its sync twin";
  }
  for (const auto& pending : batches) {
    auto result = service.Wait(pending.id);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(result->size(), pending.expected.size());
    for (size_t i = 0; i < pending.expected.size(); ++i) {
      EXPECT_TRUE(BitIdentical((*result)[i], pending.expected[i]))
          << "batch job " << pending.id << " instance " << i;
    }
  }

  sampling.store(false);
  sampler.join();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted,
            static_cast<uint64_t>(kProducers * kJobsPerProducer));
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.running, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  ExpectConserved(stats);
}

// ---------------------------------------------------------------------------
// Nested fan-out on the one shared pool must not deadlock: service workers
// drain jobs whose backends re-enter the pool (SolveBatchParallel inside a
// backend, race:* member fan-out, qaoa statevector kernels).
// ---------------------------------------------------------------------------

TEST(ServiceStressTest, NestedFanOutOnSharedPoolDoesNotDeadlock) {
  // Workers deliberately exceed the pool's own thread count so drainer
  // tasks and the nested ForEach shards compete for the same workers.
  const int workers = ThreadPool::DefaultNumThreads() + 2;
  SolverService service(ServiceConfig{workers, 0, 0});
  std::vector<JobId> ids;
  for (int i = 0; i < 6; ++i) {
    const uint64_t seed = 3000 + i;
    auto nested = service.Submit("stress_nested_batch", MakeQubo(4, seed),
                                 FastOptions(seed));
    ASSERT_TRUE(nested.ok()) << nested.status();
    ids.push_back(nested->id);

    auto race = service.Submit("race:simulated_annealing+tabu_search",
                               MakeQubo(4, seed + 50), FastOptions(seed));
    ASSERT_TRUE(race.ok()) << race.status();
    ids.push_back(race->id);

    // Gate-bridge job: the statevector kernels inside qaoa also lean on
    // pool-parallel primitives for larger states; at these sizes it mostly
    // exercises the bridge path end to end under contention.
    auto qaoa =
        service.Submit("qaoa", MakeQubo(4, seed + 80), FastOptions(seed));
    ASSERT_TRUE(qaoa.ok()) << qaoa.status();
    ids.push_back(qaoa->id);
  }
  for (JobId id : ids) {
    auto result = service.Wait(id);
    EXPECT_TRUE(result.ok()) << "job " << id << ": " << result.status();
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, stats.submitted);
  ExpectConserved(stats);
}

TEST(ServiceStressTest, ManyServicesShareOnePoolWithoutInterference) {
  // Two services on the same shared pool, interleaved submissions: results
  // stay deterministic per service, and neither blocks the other.
  SolverService a(ServiceConfig{1, 0, 0});
  SolverService b(ServiceConfig{2, 0, 0});
  std::vector<std::pair<JobId, SampleSet>> expected_a, expected_b;
  for (int i = 0; i < 8; ++i) {
    const uint64_t seed = 4000 + i;
    const Qubo qubo = MakeQubo(4, seed);
    auto sync =
        anneal::SolveWith("simulated_annealing", qubo, FastOptions(seed));
    ASSERT_TRUE(sync.ok());
    auto sa = a.Submit("simulated_annealing", qubo, FastOptions(seed));
    auto sb = b.Submit("simulated_annealing", qubo, FastOptions(seed));
    ASSERT_TRUE(sa.ok());
    ASSERT_TRUE(sb.ok());
    expected_a.emplace_back(sa->id, *sync);
    expected_b.emplace_back(sb->id, *sync);
  }
  for (const auto& [id, sync] : expected_a) {
    auto result = a.Wait(id);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(BitIdentical((*result)[0], sync));
  }
  for (const auto& [id, sync] : expected_b) {
    auto result = b.Wait(id);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(BitIdentical((*result)[0], sync));
  }
}

// ---------------------------------------------------------------------------
// Cancellation storms.
// ---------------------------------------------------------------------------

TEST(ServiceStressTest, CancellationStormMidQueue) {
  StressGate::Get().ResetStarted();
  StressGate::Get().Close();
  SolverService service(ServiceConfig{1, 0, 0});
  auto blocker =
      service.Submit("stress_blocking", MakeQubo(4, 1), FastOptions(1));
  ASSERT_TRUE(blocker.ok());
  StressGate::Get().WaitForStarted(1);

  // 30 queued jobs; cancel every other one from a racing thread while the
  // worker is still parked.
  std::vector<JobId> ids;
  for (int i = 0; i < 30; ++i) {
    auto submitted = service.Submit(
        "simulated_annealing", MakeQubo(4, 5000 + i), FastOptions(5000 + i));
    ASSERT_TRUE(submitted.ok());
    ids.push_back(submitted->id);
  }
  std::thread canceller([&] {
    for (size_t i = 0; i < ids.size(); i += 2) {
      EXPECT_TRUE(service.Cancel(ids[i]).ok());
    }
  });
  canceller.join();
  ExpectConserved(service.stats());
  StressGate::Get().Open();

  for (size_t i = 0; i < ids.size(); ++i) {
    auto result = service.Wait(ids[i]);
    if (i % 2 == 0) {
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
    } else {
      EXPECT_TRUE(result.ok()) << result.status();
    }
  }
  EXPECT_TRUE(service.Wait(blocker->id).ok());

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cancelled, 15u);
  EXPECT_EQ(stats.completed, 16u);  // 15 surviving + the blocker.
  ExpectConserved(stats);
}

TEST(ServiceStressTest, CancelMidRunStopsBatchAtInstanceBoundary) {
  StressGate::Get().ResetStarted();
  StressGate::Get().Close();
  SolverService service(ServiceConfig{1, 0, 0});
  std::vector<Qubo> qubos = {MakeQubo(4, 10), MakeQubo(4, 11), MakeQubo(4, 12)};
  auto batch = service.SubmitBatch("stress_blocking", qubos, FastOptions(10));
  ASSERT_TRUE(batch.ok());
  StressGate::Get().WaitForStarted(1);  // Instance 0 is mid-Solve.
  ASSERT_TRUE(service.Cancel(batch->id).ok());
  StressGate::Get().Open();  // Instance 0 completes; checkpoint fires.

  const auto& result = batch->future.Get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  // The cooperative checkpoint stopped the job BEFORE instance 1: the
  // backend's Solve ran exactly once.
  EXPECT_EQ(StressGate::Get().started(), 1);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 0u);
  ExpectConserved(stats);
}

// ---------------------------------------------------------------------------
// Deadlines under load: an expired job NEVER resolves kOk.
// ---------------------------------------------------------------------------

TEST(ServiceStressTest, DeadlineExceededJobsNeverReturnOk) {
  StressGate::Get().ResetStarted();
  StressGate::Get().Close();
  SolverService service(ServiceConfig{1, 0, 0});
  auto blocker =
      service.Submit("stress_blocking", MakeQubo(4, 2), FastOptions(2));
  ASSERT_TRUE(blocker.ok());
  StressGate::Get().WaitForStarted(1);

  // A spread of tight deadlines on queued jobs; the worker stays parked
  // well past the longest of them, so every one must expire.
  std::vector<JobId> doomed;
  for (int i = 0; i < 10; ++i) {
    SubmitOptions submit;
    submit.deadline = milliseconds(1 + i);
    auto submitted =
        service.Submit("simulated_annealing", MakeQubo(4, 6000 + i),
                       FastOptions(6000 + i), submit);
    ASSERT_TRUE(submitted.ok());
    doomed.push_back(submitted->id);
  }
  std::this_thread::sleep_for(milliseconds(25));
  StressGate::Get().Open();

  for (JobId id : doomed) {
    auto result = service.Wait(id);
    ASSERT_FALSE(result.ok()) << "expired job " << id << " resolved kOk";
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
    auto poll = service.Poll(id);
    ASSERT_TRUE(poll.ok());
    EXPECT_EQ(poll->state, JobState::kDeadlineExceeded);
  }
  EXPECT_TRUE(service.Wait(blocker->id).ok());

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.deadline_exceeded, 10u);
  EXPECT_EQ(stats.completed, 1u);
  ExpectConserved(stats);
}

// ---------------------------------------------------------------------------
// Shutdown under load.
// ---------------------------------------------------------------------------

TEST(ServiceStressTest, DestructorUnderLoadCancelsQueuedAndJoinsRunning) {
  std::vector<Future<anneal::SampleSet>> futures;
  {
    SolverService service(ServiceConfig{2, 0, 0});
    for (int i = 0; i < 24; ++i) {
      auto submitted = service.Submit(
          "simulated_annealing", MakeQubo(4, 7000 + i), FastOptions(7000 + i));
      ASSERT_TRUE(submitted.ok());
      futures.push_back(submitted->future);
    }
    // Destructor == Shutdown: queued jobs resolve Cancelled, running jobs
    // finish, nothing leaks or deadlocks.
  }
  int completed = 0, cancelled = 0;
  for (auto& future : futures) {
    ASSERT_TRUE(future.ready()) << "future unresolved after shutdown";
    if (future.Get().ok()) {
      ++completed;
    } else {
      EXPECT_EQ(future.Get().status().code(), StatusCode::kCancelled);
      ++cancelled;
    }
  }
  EXPECT_EQ(completed + cancelled, 24);
}

}  // namespace
}  // namespace service
}  // namespace qdm
