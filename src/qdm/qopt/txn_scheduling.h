#ifndef QDM_QOPT_TXN_SCHEDULING_H_
#define QDM_QOPT_TXN_SCHEDULING_H_

#include <set>
#include <string>
#include <vector>

#include "qdm/anneal/qubo.h"
#include "qdm/anneal/solver.h"
#include "qdm/common/rng.h"
#include "qdm/common/status.h"

namespace qdm {
namespace qopt {

/// Transaction scheduling instance, after Bittner & Groppe [IDEAS'20 /
/// OJCC'20]: transactions with known lock sets must be assigned to execution
/// slots ("epochs"); two transactions that lock a common object conflict and
/// block each other under two-phase locking when run in the same slot. The
/// goal is a conflict-free assignment using few slots.
struct TxnScheduleProblem {
  /// lock_sets[t]: object ids transaction t locks (exclusive locks).
  std::vector<std::set<int>> lock_sets;
  int num_slots = 0;

  int num_txns() const { return static_cast<int>(lock_sets.size()); }
  int num_variables() const { return num_txns() * num_slots; }
  int VarIndex(int txn, int slot) const;

  bool Conflict(int txn_a, int txn_b) const;
  std::vector<std::pair<int, int>> ConflictPairs() const;
};

/// Random instance: each transaction locks `locks_per_txn` of `num_objects`
/// objects; `num_slots` defaults to the conflict-graph degree bound +1 so a
/// conflict-free schedule always exists.
TxnScheduleProblem GenerateTxnSchedule(int num_txns, int num_objects,
                                       int locks_per_txn, int num_slots,
                                       Rng* rng);

/// QUBO per [29, 30]: x_{t,s} = "txn t runs in slot s"; exactly-one slot per
/// transaction (penalty); heavy penalty when two conflicting transactions
/// share a slot; small linear weights favor early slots (compress makespan).
anneal::Qubo TxnScheduleToQubo(const TxnScheduleProblem& problem,
                               double conflict_penalty = 0.0,
                               double slot_weight = 1.0);

struct Schedule {
  std::vector<int> slot_of_txn;
  bool feasible = false;                // Exactly one slot per txn.
  int conflicting_pairs_same_slot = 0;  // 0 == blocking-free under 2PL.
  int makespan = 0;                     // Highest used slot + 1.
};

Schedule DecodeSchedule(const TxnScheduleProblem& problem,
                        const anneal::Assignment& assignment);

/// Transaction scheduling end-to-end through the shared qopt::QuboPipeline:
/// TxnScheduleToQubo in, registry dispatch to `solver_name` (any name,
/// including "embedded:*" and "race:*"), strict DecodeSchedule of the best
/// sample out. A batch of one (sequential, so options.rng is honored).
Result<Schedule> SolveTxnSchedule(const TxnScheduleProblem& problem,
                                  const std::string& solver_name,
                                  const anneal::SolverOptions& options,
                                  double conflict_penalty = 0.0,
                                  double slot_weight = 1.0);

/// Batched scheduling, one QUBO per epoch of incoming transactions (the
/// per-epoch batches of Bittner & Groppe) — QuboPipeline::RunBatch with the
/// scheduling encoder/decoder: encodes every epoch, dispatches the batch
/// through anneal::SolveBatchParallel (fanning out across `num_threads`
/// pool workers when != 1), strict-decodes each best sample.
/// schedules[i] corresponds to epochs[i]. With options.rng == nullptr,
/// epoch i is solved with seed options.seed + i — bit-identical results for
/// every thread count. All-or-nothing on failure.
Result<std::vector<Schedule>> SolveTxnScheduleEpochs(
    const std::vector<TxnScheduleProblem>& epochs,
    const std::string& solver_name, const anneal::SolverOptions& options,
    double conflict_penalty = 0.0, double slot_weight = 1.0,
    int num_threads = 1);

/// Classical baseline: greedy graph coloring (largest-degree-first) of the
/// conflict graph; colors become slots.
Schedule GreedyColoringSchedule(const TxnScheduleProblem& problem);

/// Exhaustive optimal makespan among conflict-free schedules (tiny instances).
Schedule ExhaustiveSchedule(const TxnScheduleProblem& problem);

/// Validates a schedule on a strict-2PL lock-table simulation: transactions
/// of one slot run concurrently, each acquiring its locks in object order,
/// holding them to transaction end. Reports total steps spent blocked and
/// whether a deadlock occurred (possible only for conflicting co-located
/// transactions).
struct BlockingReport {
  int total_wait_steps = 0;
  bool deadlock = false;
  int completed_txns = 0;
};

BlockingReport SimulateTwoPhaseLocking(const TxnScheduleProblem& problem,
                                       const Schedule& schedule);

}  // namespace qopt
}  // namespace qdm

#endif  // QDM_QOPT_TXN_SCHEDULING_H_
