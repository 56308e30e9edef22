#ifndef QDM_ANNEAL_PORTFOLIO_SOLVER_H_
#define QDM_ANNEAL_PORTFOLIO_SOLVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "qdm/anneal/solver.h"

namespace qdm {
namespace anneal {

/// Races every backend in `members` (registry names — including
/// "embedded:<base>:<topology>" ones) on the SAME qubo and returns the
/// winning member's SampleSet. The hybrid-architecture hedge of the NISQ-era
/// companion papers (Hai et al.; Zajac & Stoerl): no single device or
/// heuristic dominates, so one request fans out to many engines and the best
/// answer wins.
///
/// Contract:
///
///  - Winner: the member whose best (lowest-energy) sample is strictly
///    lowest; on equal best energies the earliest member in `members` wins
///    (backend-order tie-break), so the result never depends on timing.
///  - Randomness: with options.rng == nullptr, member i is solved with
///    DeriveBatchOptions(options, i) — i.e. seed + i — making the race a
///    pure function of (members, qubo, options), bit-identical at every
///    num_threads value. A non-null options.rng is honored only when
///    num_threads == 1 (sequential member order); any other num_threads is
///    InvalidArgument.
///  - Partial failure is the point of racing: members that fail (or return
///    an empty sample set) are dropped and the winner is picked among the
///    survivors. Only when EVERY member fails does the race fail, returning
///    the lowest-index member's Status annotated "race member <i> ('<name>')".
///  - Unknown member names are surfaced up front (before any fan-out), as
///    the registry's Create error annotated with the member name.
///
/// num_threads: 1 = strictly sequential on the calling thread (the only mode
/// honoring options.rng); otherwise members run on ThreadPool::Shared() via
/// the caller-participating ForEach, capped at num_threads workers when
/// positive — which cannot deadlock when the race itself runs inside a
/// batch worker (the dispatching thread drains its own index counter).
///
/// Seed-derivation composition note: SolveBatchParallel solves batch
/// instance i with seed + i, so a "race:*" backend inside a batch solves
/// member m of instance i with seed + i + m. Adjacent instances therefore
/// reuse member seeds on DIFFERENT qubos/backends — harmless, but worth
/// knowing when reproducing one member's solve in isolation.
Result<SampleSet> SolveRaceParallel(const std::vector<std::string>& members,
                                    const Qubo& qubo,
                                    const SolverOptions& options,
                                    int num_threads = 0);

/// QuboSolver combinator presenting a solver portfolio behind one registry
/// name, "race:<b1>+<b2>[+...]" or "adaptive:<b1>+<b2>[+...]". The prefix
/// fixes the commit policy:
///
///  - race:* never commits: every solve races all members with the
///    SolveRaceParallel rules (sequentially when options.rng is set, across
///    the shared pool otherwise) and returns the winner's SampleSet
///    verbatim, with no decision recorded. Solve is a pure function of
///    (qubo, options).
///  - adaptive:* races all members only for the first kExploreInstances
///    solves of its lifetime, tallies which member won each race, then
///    COMMITS to the member with the most wins (earliest on ties) and runs
///    only that one — no more hedging, so a failing committed member fails
///    the solve instead of being dropped. The counter makes the instance
///    STATEFUL across Solve calls. Every returned SampleSet carries
///    "<phase>:<arm>:<member>" in SampleSet::decision ("explore:1:
///    tabu_search", "commit:0:simulated_annealing"); it rides the wire
///    format and replays bit-exactly through ReplayAdaptiveDecision
///    (adaptive_solver.h). The committed member keeps its member offset
///    (seed + arm), so one replay rule covers both phases.
///
/// SolveBatch keeps the schedule positional: solve k of the lifetime (Solve
/// calls and batch instances advance the same counter) explores while
/// k < kExploreInstances, so a freshly Created instance always sees batch
/// instance i as lifetime solve i — bit-identical at any thread count and
/// to one Solve per instance on one backend (the service path). Explore
/// races run their members sequentially on per-worker member sets; the
/// tally is taken in instance order.
class PortfolioSolver : public QuboSolver {
 public:
  /// Lifetime solves an adaptive:* portfolio races before committing. Large
  /// enough that a noisy win-rate skew cannot flip the commit on real
  /// workloads, small enough that the explore cost amortizes within one
  /// serving batch.
  static constexpr int kExploreInstances = 8;

  /// `registry_name` is what name() reports — the full "race:..." or
  /// "adaptive:..." string the instance was created under, so it can be
  /// re-Created by name; its prefix picks the commit policy.
  /// `member_solvers` aligns 1:1 with `members` (MakePortfolioSolver hands
  /// over the backends it built for validation); they are owned and reused
  /// across Solve calls.
  PortfolioSolver(std::string registry_name, std::vector<std::string> members,
                  std::vector<std::unique_ptr<QuboSolver>> member_solvers);

  Result<SampleSet> Solve(const Qubo& qubo,
                          const SolverOptions& options) override;
  Result<std::vector<SampleSet>> SolveBatch(const std::vector<Qubo>& qubos,
                                            const SolverOptions& options,
                                            int num_threads) override;
  std::string name() const override { return registry_name_; }

  const std::vector<std::string>& members() const { return members_; }

  /// The member a commit-phase solve would run right now: -1 for race:*
  /// and while still exploring, else the argmax of the win tally (earliest
  /// member on ties — the same deterministic tie-break as the race winner
  /// scan).
  int committed_member() const;

  /// Win tally over the explore solves seen so far, indexed like members()
  /// (all zero for race:*, which keeps no tally).
  const std::vector<int>& wins() const { return wins_; }

 private:
  /// Explore solves left before an adaptive:* portfolio commits; never
  /// zero for race:*.
  uint64_t ExploresLeft() const;

  /// adaptive:* only: tallies an explore race won by `winner` and records
  /// its decision. race:* returns `samples` untouched.
  SampleSet RecordExplore(int winner, SampleSet samples);

  /// Solves with committed member `m` alone and records the decision; the
  /// lifetime counter is the caller's to advance.
  Result<SampleSet> Commit(int m, const Qubo& qubo,
                           const SolverOptions& options);

  std::string registry_name_;
  bool commits_ = false;
  std::string member_label_;  // "race member" / "adaptive member".
  std::vector<std::string> members_;
  std::vector<std::unique_ptr<QuboSolver>> member_solvers_;
  uint64_t solves_seen_ = 0;
  std::vector<int> wins_;
};

/// Builds a PortfolioSolver from a registry name of the form
///   "race:<b1>+<b2>[+<b3>...]" or "adaptive:<b1>+<b2>[+<b3>...]"
/// e.g. "race:simulated_annealing+tabu_search",
/// "adaptive:exact+embedded:simulated_annealing:pegasus:6". At least two
/// '+'-separated members are required (InvalidArgument otherwise; a
/// portfolio of one is just that backend), empty members are rejected by
/// position, members may be any registry-resolvable name including
/// "embedded:*" (a member that fails to resolve propagates its underlying
/// error — NotFound for unknown names, InvalidArgument for e.g. a malformed
/// topology spec — annotated with the full portfolio name), and a "race:"
/// or "adaptive:" member is rejected as InvalidArgument ('+' would be
/// ambiguous). This is the resolver behind the registry's "race:" and
/// "adaptive:" prefixes: SolverRegistry::Create accepts ANY well-formed
/// portfolio name, while RegisteredNames() lists only the eagerly-registered
/// defaults.
Result<std::unique_ptr<QuboSolver>> MakePortfolioSolver(
    const std::string& name);

/// Registers the default portfolio backends
/// ("race:simulated_annealing+tabu_search" and
/// "adaptive:simulated_annealing+tabu_search", visible in RegisteredNames())
/// and the "race:" and "adaptive:" prefix resolvers. Invoked by a static
/// registrar; safe to call again (AlreadyExists is ignored).
bool RegisterPortfolioSolvers();

}  // namespace anneal
}  // namespace qdm

#endif  // QDM_ANNEAL_PORTFOLIO_SOLVER_H_
