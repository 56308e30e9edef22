#ifndef QDM_COMMON_THREAD_POOL_H_
#define QDM_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace qdm {

/// Fixed-size worker pool for fanning independent tasks out across threads.
/// Every fan-out in the toolkit — QUBO batches, portfolio races, the
/// statevector kernels — runs on the process-wide Shared() pool through
/// ForEach, so none of them spawns threads per call; the pool is
/// deliberately minimal — submit, wait, reuse — so those seams share it
/// without inheriting scheduler policy.
///
/// Tasks must not throw (the toolkit is exception-free; failures travel as
/// Status values captured by the task itself). Submitting from inside a task
/// is allowed; destruction drains tasks already submitted.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers; `num_threads <= 0` means
  /// DefaultNumThreads().
  explicit ThreadPool(int num_threads);

  /// Joins all workers after draining the queue.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `task` for execution on some worker thread.
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished. The pool stays
  /// usable afterwards (Submit/Wait cycles can repeat).
  void Wait();

  /// Worker count used for `num_threads <= 0`: the hardware concurrency,
  /// never less than 1.
  static int DefaultNumThreads();

  /// Process-wide pool shared by data-parallel kernels (the parallel
  /// statevector gate kernels dispatch their chunks here, so per-gate
  /// dispatch never spawns threads). Lazily created with
  /// DefaultNumThreads() workers and intentionally never destroyed, so it
  /// stays usable from any shutdown context.
  static ThreadPool& Shared();

  /// Runs body(worker, i) for every i in [0, n) using this pool's workers
  /// AND the calling thread, returning when all n iterations are done.
  /// Because the caller participates in draining the shared index counter,
  /// the call makes progress even when every worker is busy — nested use
  /// from inside pool tasks cannot deadlock (worst case the caller runs all n
  /// iterations itself). `body` must be safe to call concurrently for
  /// different i and — like every task (see class comment) — must not
  /// throw: an exception escaping a worker terminates the process, and one
  /// escaping the caller's own drain would unwind past helpers still
  /// referencing the call state. Iteration-to-thread assignment is dynamic,
  /// so callers needing determinism must make iteration i's effect
  /// independent of execution order and of which worker runs it.
  ///
  /// `worker` is the stable id of the drain running the iteration: the
  /// caller is worker 0 and each of the min(num_threads(), n) helper tasks
  /// gets its own id from 1 up. An id never runs on two threads at once, so
  /// a caller can reuse one expensive per-worker resource (e.g. a solver
  /// backend) across every index that id picks up. `max_workers` > 0 caps
  /// the ids to [0, max_workers) — max_workers == 1 runs every index in
  /// order on the caller; <= 0 means no cap beyond the pool's size.
  void ForEach(int n, int max_workers,
               const std::function<void(int worker, int i)>& body);

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  int in_flight_ = 0;  // Queued + currently running tasks.
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace qdm

#endif  // QDM_COMMON_THREAD_POOL_H_
