#include "qdm/common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "qdm/common/check.h"

namespace qdm {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) num_threads = DefaultNumThreads();
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  QDM_CHECK(task != nullptr) << "ThreadPool::Submit given a null task";
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Submitting while the destructor drains (a running task re-submitting)
    // is fine: workers keep pulling until the queue is empty, so the new
    // task still runs before the join completes.
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

int ThreadPool::DefaultNumThreads() {
  // Cached: hardware_concurrency() is a syscall on Linux, and this sits on
  // the per-gate config-resolution path of the statevector kernels.
  static const int num_threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return num_threads;
}

ThreadPool& ThreadPool::Shared() {
  // Deliberately leaked (never joined): see the header.
  static ThreadPool* pool = new ThreadPool(0);
  return *pool;
}

void ThreadPool::ForEach(int n, int max_workers,
                         const std::function<void(int, int)>& body) {
  if (n <= 0) return;
  // Per-call completion state, shared with helper tasks so a helper that is
  // scheduled after the call already returned (all indices drained by the
  // caller or other workers) still finds valid memory and exits cleanly.
  struct CallState {
    CallState(int n, std::function<void(int, int)> body)
        : n(n), body(std::move(body)) {}
    const int n;
    const std::function<void(int, int)> body;
    std::atomic<int> next{0};
    std::atomic<int> done{0};
    std::mutex mutex;
    std::condition_variable all_done;
  };
  auto state = std::make_shared<CallState>(n, body);
  // Dynamic scheduling: each drain pulls the next index off the shared
  // counter, so uneven per-index cost cannot stall a static stripe.
  const auto drain = [](const std::shared_ptr<CallState>& s, int worker) {
    for (int i = s->next.fetch_add(1); i < s->n; i = s->next.fetch_add(1)) {
      s->body(worker, i);
      if (s->done.fetch_add(1) + 1 == s->n) {
        // Lock before notifying so the waiter cannot miss the wakeup
        // between its predicate check and its wait.
        std::lock_guard<std::mutex> lock(s->mutex);
        s->all_done.notify_all();
      }
    }
  };
  // The caller drains too, so n - 1 helpers cover n indices: one more would
  // wake a worker that finds nothing.
  int helpers = std::min(num_threads(), n - 1);
  if (max_workers > 0) helpers = std::min(helpers, max_workers - 1);
  for (int worker = 1; worker <= helpers; ++worker) {
    Submit([state, drain, worker] { drain(state, worker); });
  }
  drain(state, 0);  // The caller participates: nested calls always progress.
  std::unique_lock<std::mutex> lock(state->mutex);
  state->all_done.wait(lock, [&] { return state->done.load() == n; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock,
                           [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // Shutdown with a drained queue.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace qdm
