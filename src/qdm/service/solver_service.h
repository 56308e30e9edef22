#ifndef QDM_SERVICE_SOLVER_SERVICE_H_
#define QDM_SERVICE_SOLVER_SERVICE_H_

#include <memory>
#include <string>
#include <vector>

#include "qdm/anneal/qubo.h"
#include "qdm/anneal/sampler.h"
#include "qdm/anneal/solver.h"
#include "qdm/common/status.h"
#include "qdm/service/future.h"
#include "qdm/service/job.h"

namespace qdm {
namespace service {

/// A Submit acceptance: the opaque id (for Poll/Wait/Cancel) and
/// a typed future resolving with the job's SampleSet.
struct SubmittedJob {
  JobId id = 0;
  Future<anneal::SampleSet> future;
};

/// A SubmitBatch acceptance: id plus a future resolving with one SampleSet
/// per submitted instance (all-or-nothing, like SolveBatchParallel).
struct SubmittedBatch {
  JobId id = 0;
  Future<std::vector<anneal::SampleSet>> future;
};

/// Async execution layer over the SolverRegistry — the "solver as a
/// service" step of the ROADMAP: many concurrent clients submit QUBOs or
/// batches by registry name (a portfolio race is just a "race:<m1>+<m2>"
/// name) and poll or await results, instead of one synchronous caller
/// driving Solve directly.
///
/// Execution model: accepted jobs enter a bounded FIFO queue drained by up
/// to `config.num_workers` worker tasks on the process-wide
/// ThreadPool::Shared() — the service owns no threads of its own, so any
/// number of services coexist on one pool, and jobs that internally fan
/// out (race:* members, parallel statevector kernels, nested
/// SolveBatchParallel) reuse the same pool through its
/// caller-participating ForEach, which cannot deadlock.
///
/// Determinism contract (the async extension of the batch rule in
/// docs/batching.md): a job submitted with options.seed == s resolves with
/// exactly the SampleSet(s) the synchronous path produces with seed s —
/// Solve(qubo, options) for Submit, SolveBatchParallel's per-instance
/// seed + index derivation for SubmitBatch — regardless of queue
/// interleaving, worker count, or what other jobs are in flight.
/// options.rng must be null (InvalidArgument): a shared Rng cannot cross
/// the async boundary deterministically.
///
/// Error taxonomy: submission-time errors (unknown solver name ->
/// NotFound, malformed "embedded:"/"race:" spec -> InvalidArgument, bad
/// options) are returned by Submit* BEFORE the job is enqueued, with the
/// same Status the synchronous registry path produces. Post-acceptance
/// failures resolve the job's future: backend errors keep their sync
/// messages (batch instances annotated "batch instance <i>: ..." exactly
/// like SolveBatchParallel), cancellation resolves Cancelled, and an
/// expired deadline resolves DeadlineExceeded.
///
/// Thread safety: every method may be called concurrently from any thread.
class SolverService {
 public:
  explicit SolverService(ServiceConfig config = {});

  /// Equivalent to Shutdown().
  ~SolverService();

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// Submits one QUBO to the backend registered under `solver_name`
  /// (any registry-resolvable name, including "embedded:*" and "race:*").
  /// On acceptance the returned future resolves with the SampleSet that
  /// the synchronous Solve(qubo, options) produces for the same seed.
  Result<SubmittedJob> Submit(const std::string& solver_name, anneal::Qubo qubo,
                              const anneal::SolverOptions& options,
                              const SubmitOptions& submit = {});

  /// Submits a batch of independent instances as ONE job (one id, one
  /// future, all-or-nothing result — the async sibling of
  /// SolveBatchParallel, bit-identical to it instance by instance via the
  /// same seed + index derivation). Instances run sequentially on the
  /// job's worker; between instances the job checks its deadline and
  /// cancellation token, so batch jobs can be stopped at instance
  /// granularity. Cross-job parallelism comes from submitting many jobs.
  Result<SubmittedBatch> SubmitBatch(const std::string& solver_name,
                                     std::vector<anneal::Qubo> qubos,
                                     const anneal::SolverOptions& options,
                                     const SubmitOptions& submit = {});

  /// Non-blocking state probe; NotFound for ids never issued or already
  /// Released. Terminal snapshots carry the job's final Status.
  Result<JobSnapshot> Poll(JobId id) const;

  /// Blocks until the job is terminal and returns its result (the batch
  /// form — Submit jobs yield one-element vectors; their typed
  /// future unwraps it). Safe to call repeatedly and from several threads:
  /// every call returns the same resolved Result. NotFound for unknown
  /// ids.
  Result<std::vector<anneal::SampleSet>> Wait(JobId id) const;

  /// Requests cancellation. A queued job is resolved Cancelled
  /// immediately; a running job is signalled through its cooperative
  /// token (batch jobs stop at the next instance boundary) and is
  /// GUARANTEED to resolve Cancelled — even if the backend call in flight
  /// completes, its result is discarded. Returns Ok when the request was
  /// accepted, FailedPrecondition when the job is already terminal,
  /// NotFound for unknown ids.
  Status Cancel(JobId id);

  /// Drops a terminal job's bookkeeping (ids are never reused, so a
  /// released id turns NotFound). FailedPrecondition while queued/running.
  /// Long-lived services call this after consuming results; unreleased
  /// jobs are retained until shutdown.
  Status Release(JobId id);

  /// Consistent point-in-time snapshot (see ServiceStats for the
  /// conservation law it obeys).
  ServiceStats stats() const;

  /// False while admission control is shedding load (queue reached the
  /// high watermark and has not yet drained to the low one).
  bool accepting() const;

  /// Resolved worker-task cap.
  int num_workers() const;

  /// Stops admission (further Submit* -> FailedPrecondition), cancels
  /// every queued job (their futures resolve Cancelled), and blocks until
  /// running jobs finish. Idempotent; called by the destructor.
  void Shutdown();

 private:
  struct Impl;  // Shared with worker tasks so they never outlive state.
  std::shared_ptr<Impl> impl_;
};

}  // namespace service
}  // namespace qdm

#endif  // QDM_SERVICE_SOLVER_SERVICE_H_
