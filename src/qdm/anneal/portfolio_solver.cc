#include "qdm/anneal/portfolio_solver.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>

#include "qdm/anneal/adaptive_solver.h"
#include "qdm/common/strings.h"
#include "qdm/common/thread_pool.h"

namespace qdm {
namespace anneal {

namespace {

/// The two '+'-list portfolio families. A family's prefix is `word` + ':';
/// the other columns keep each family's messages its own.
struct PortfolioFamily {
  const char* word;    // Prefix stem; names the family in nesting errors.
  const char* noun;    // "<noun> solver name '...'".
  const char* of_one;  // What a one-member portfolio would be.
  bool commits;        // Commits after kExploreInstances solves.
};

constexpr PortfolioFamily kFamilies[] = {
    {"race", "portfolio", "a race of one", false},
    {"adaptive", "adaptive", "an adaptive portfolio of one", true},
};

std::string Prefix(const PortfolioFamily& family) {
  return std::string(family.word) + ":";
}

const PortfolioFamily* FindFamily(const std::string& name) {
  for (const PortfolioFamily& family : kFamilies) {
    if (StartsWith(name, Prefix(family))) return &family;
  }
  return nullptr;
}

/// Prefixes a per-member failure with its position and name, preserving the
/// original code so callers can still dispatch on it. `label` is the family
/// framing: "race member" or "adaptive member".
Status AnnotateMemberError(const Status& status, size_t index,
                           const std::string& member,
                           const std::string& label) {
  return Status(status.code(),
                StrFormat("%s %zu ('%s'): %s", label.c_str(), index,
                          member.c_str(), status.message().c_str()));
}

/// Solves one member. Folds an empty SampleSet into an Internal error so
/// the winner scan and the commit phase only ever see usable sets.
Result<SampleSet> SolveMember(QuboSolver* solver, const std::string& member,
                              const Qubo& qubo, const SolverOptions& options) {
  QDM_ASSIGN_OR_RETURN(SampleSet samples, solver->Solve(qubo, options));
  if (samples.empty()) {
    return Status::Internal(StrFormat(
        "solver '%s' returned an empty sample set", member.c_str()));
  }
  return samples;
}

/// Builds one backend per member name, in order, stopping at the first
/// failure. `vet` (may be null) checks a name just before it resolves;
/// `frame` annotates a resolution failure with the member it belongs to
/// (the registry error alone names only itself). Backend construction can
/// be non-trivial — an "embedded:*" member builds its topology graph — so
/// callers keep and reuse the result.
Result<std::vector<std::unique_ptr<QuboSolver>>> CreateMembers(
    const std::vector<std::string>& members,
    const std::function<Status(size_t)>& vet,
    const std::function<Status(size_t, const Status&)>& frame) {
  std::vector<std::unique_ptr<QuboSolver>> solvers;
  solvers.reserve(members.size());
  for (size_t i = 0; i < members.size(); ++i) {
    if (vet != nullptr) QDM_RETURN_IF_ERROR(vet(i));
    Result<std::unique_ptr<QuboSolver>> solver =
        SolverRegistry::Global().Create(members[i]);
    if (!solver.ok()) return frame(i, solver.status());
    solvers.push_back(std::move(solver).value());
  }
  return solvers;
}

/// Outcome of one race: which member won, and its SampleSet verbatim.
struct RaceOutcome {
  int winner = 0;
  SampleSet samples;
};

/// The race core over already-constructed member backends: members/solvers
/// align 1:1, and each member is solved by exactly one task, so one object
/// per member satisfies the no-thread-safety contract. Winner selection and
/// rng/seed semantics follow SolveRaceParallel; num_threads is the ForEach
/// worker cap (1 = in order on the calling thread). `label` frames member
/// failures.
Result<RaceOutcome> RaceMembers(
    const std::vector<std::string>& members,
    const std::vector<std::unique_ptr<QuboSolver>>& solvers, const Qubo& qubo,
    const SolverOptions& options, int num_threads, const std::string& label) {
  const size_t n = members.size();
  std::vector<Result<SampleSet>> results(n, Status::Internal("not raced"));
  // On the seed-based paths each member solves with its own derived seed —
  // results are independent of which thread ran which member. The shared
  // pool's caller-participating ForEach cannot deadlock when this race runs
  // inside a batch (or other pool) worker — worst case the calling thread
  // races every member itself.
  const auto race_member = [&](int, int i) {
    results[i] = SolveMember(
        solvers[i].get(), members[i], qubo,
        options.rng != nullptr ? options : DeriveBatchOptions(options, i));
  };
  ThreadPool::Shared().ForEach(static_cast<int>(n), num_threads, race_member);

  // Deterministic winner scan: strictly lower best energy wins; equal best
  // energies keep the earlier member (backend-order tie-break). Failed
  // members are dropped — hedging across unreliable backends is the point —
  // unless every member failed.
  int winner = -1;
  for (size_t i = 0; i < n; ++i) {
    if (!results[i].ok()) continue;
    if (winner < 0 ||
        results[i]->best().energy < results[winner]->best().energy) {
      winner = static_cast<int>(i);
    }
  }
  if (winner < 0) {
    return AnnotateMemberError(results[0].status(), 0, members[0], label);
  }
  RaceOutcome outcome;
  outcome.winner = winner;
  outcome.samples = std::move(results[winner]).value();
  return outcome;
}

}  // namespace

Result<SampleSet> SolveRaceParallel(const std::vector<std::string>& members,
                                    const Qubo& qubo,
                                    const SolverOptions& options,
                                    int num_threads) {
  if (members.empty()) {
    return Status::InvalidArgument("a race needs at least one member backend");
  }
  // Resolve every member up front: unknown names surface before any fan-out,
  // and the constructed backends are what the race runs on.
  const std::string label = "race member";
  const auto frame = [&](size_t i, const Status& status) {
    return AnnotateMemberError(status, i, members[i], label);
  };
  QDM_ASSIGN_OR_RETURN(std::vector<std::unique_ptr<QuboSolver>> solvers,
                       CreateMembers(members, nullptr, frame));
  if (num_threads != 1 && options.rng != nullptr) {
    return Status::InvalidArgument(
        "SolveRaceParallel with num_threads != 1 requires seed-based "
        "randomness (options.rng must be null): a shared Rng cannot be "
        "fanned out deterministically");
  }
  QDM_RETURN_IF_ERROR(ValidateSolverOptions(options));
  QDM_ASSIGN_OR_RETURN(
      RaceOutcome outcome,
      RaceMembers(members, solvers, qubo, options, num_threads, label));
  return std::move(outcome.samples);
}

PortfolioSolver::PortfolioSolver(
    std::string registry_name, std::vector<std::string> members,
    std::vector<std::unique_ptr<QuboSolver>> member_solvers)
    : registry_name_(std::move(registry_name)),
      members_(std::move(members)),
      member_solvers_(std::move(member_solvers)),
      wins_(members_.size(), 0) {
  const PortfolioFamily* family = FindFamily(registry_name_);
  QDM_CHECK(family != nullptr)
      << "portfolio " << registry_name_ << " is neither race:* nor adaptive:*";
  commits_ = family->commits;
  member_label_ = std::string(family->word) + " member";
  QDM_CHECK(!members_.empty() && member_solvers_.size() == members_.size())
      << "portfolio " << registry_name_
      << " member backends do not align with its member names";
}

uint64_t PortfolioSolver::ExploresLeft() const {
  if (!commits_) return std::numeric_limits<uint64_t>::max();
  const uint64_t explore = kExploreInstances;
  return solves_seen_ < explore ? explore - solves_seen_ : 0;
}

int PortfolioSolver::committed_member() const {
  if (ExploresLeft() > 0) return -1;
  // Most wins commits; equal tallies keep the earliest member — the same
  // deterministic tie-break as the race winner scan.
  return static_cast<int>(std::max_element(wins_.begin(), wins_.end()) -
                          wins_.begin());
}

SampleSet PortfolioSolver::RecordExplore(int winner, SampleSet samples) {
  if (commits_) {
    ++wins_[winner];
    ++solves_seen_;
    samples.set_decision(
        FormatAdaptiveDecision("explore", winner, members_[winner]));
  }
  return samples;
}

Result<SampleSet> PortfolioSolver::Commit(int m, const Qubo& qubo,
                                          const SolverOptions& options) {
  // The committed member keeps the seed+index rule of the explore races
  // (member m solves with seed + m), so one replay rule covers both
  // phases. A caller-shared Rng is honored verbatim, as in a race.
  Result<SampleSet> samples = SolveMember(
      member_solvers_[m].get(), members_[m], qubo,
      options.rng != nullptr ? options : DeriveBatchOptions(options, m));
  if (!samples.ok()) {
    return AnnotateMemberError(samples.status(), m, members_[m], member_label_);
  }
  samples->set_decision(FormatAdaptiveDecision("commit", m, members_[m]));
  return samples;
}

Result<SampleSet> PortfolioSolver::Solve(const Qubo& qubo,
                                         const SolverOptions& options) {
  QDM_RETURN_IF_ERROR(ValidateSolverOptions(options));
  const int m = committed_member();
  if (m >= 0) {
    QDM_ASSIGN_OR_RETURN(SampleSet samples, Commit(m, qubo, options));
    ++solves_seen_;
    return samples;
  }
  // A shared Rng can only be honored sequentially; seed-based races hedge
  // across the shared pool (deadlock-free under batch workers).
  QDM_ASSIGN_OR_RETURN(
      RaceOutcome outcome,
      RaceMembers(members_, member_solvers_, qubo, options,
                  options.rng != nullptr ? 1 : 0, member_label_));
  return RecordExplore(outcome.winner, std::move(outcome.samples));
}

Result<std::vector<SampleSet>> PortfolioSolver::SolveBatch(
    const std::vector<Qubo>& qubos, const SolverOptions& options,
    int num_threads) {
  const int threads =
      num_threads > 0 ? num_threads : ThreadPool::DefaultNumThreads();
  const size_t n = qubos.size();
  // One thread, one instance, or a shared Rng (which the default rejects
  // unless num_threads == 1): the default runs Solve per instance, in order,
  // on this backend — the sequential reference the schedule below matches.
  if (threads == 1 || n <= 1 || options.rng != nullptr) {
    return QuboSolver::SolveBatch(qubos, options, num_threads);
  }
  QDM_RETURN_IF_ERROR(ValidateSolverOptions(options));

  // Positional schedule from this instance's counter: the first `explore`
  // instances race, the rest run the committed member. A fresh adaptive:*
  // instance therefore explores instances [0, 8) and commits from instance
  // 8 — exactly what the sequential reference does, at any thread count. A
  // race:* batch explores every instance.
  const size_t explore =
      static_cast<size_t>(std::min<uint64_t>(n, ExploresLeft()));

  // Worker-local member sets: a race inside one instance runs its members
  // sequentially on that worker's own backends, so no backend is ever
  // shared across threads. Worker 0 is this instance; the others are
  // re-Created from name() (the backend cache keeps them cheap).
  const int workers = static_cast<int>(std::min<size_t>(
      static_cast<size_t>(threads), std::max(explore, n - explore)));
  std::vector<std::unique_ptr<QuboSolver>> owned;
  std::vector<PortfolioSolver*> sets = {this};
  for (int w = 1; w < workers; ++w) {
    QDM_ASSIGN_OR_RETURN(std::unique_ptr<QuboSolver> clone,
                         SolverRegistry::Global().Create(registry_name_));
    sets.push_back(static_cast<PortfolioSolver*>(clone.get()));
    owned.push_back(std::move(clone));
  }

  // Explore phase: each worker races all members for the instances it
  // drains (the parallelism is across instances).
  std::vector<Result<RaceOutcome>> races(explore,
                                         Status::Internal("not raced"));
  ThreadPool::Shared().ForEach(
      static_cast<int>(explore), workers, [&](int worker, int i) {
        races[i] = RaceMembers(members_, sets[worker]->member_solvers_,
                               qubos[i], DeriveBatchOptions(options, i),
                               /*num_threads=*/1, member_label_);
      });
  // Tally sequentially in instance order — the win counts and the commit
  // decision are a pure function of the batch, not of the fan-out. The
  // counter advances per successful instance, mirroring the sequential
  // reference's stop-at-first-failure accounting.
  std::vector<SampleSet> results(n);
  for (size_t i = 0; i < explore; ++i) {
    if (!races[i].ok()) {
      return AnnotateBatchInstanceError(races[i].status(), i, n);
    }
    results[i] = RecordExplore(races[i]->winner, std::move(races[i]->samples));
  }

  // Commit phase: only the winning member runs for the rest of the batch.
  const int m = committed_member();
  std::vector<Result<SampleSet>> commits(n - explore,
                                         Status::Internal("not solved"));
  ThreadPool::Shared().ForEach(
      static_cast<int>(n - explore), workers, [&](int worker, int j) {
        const size_t i = explore + static_cast<size_t>(j);
        commits[j] =
            sets[worker]->Commit(m, qubos[i], DeriveBatchOptions(options, i));
      });
  for (size_t j = 0; j < commits.size(); ++j) {
    if (!commits[j].ok()) {
      return AnnotateBatchInstanceError(commits[j].status(), explore + j, n);
    }
    ++solves_seen_;
    results[explore + j] = std::move(commits[j]).value();
  }
  return results;
}

Result<std::unique_ptr<QuboSolver>> MakePortfolioSolver(
    const std::string& name) {
  const PortfolioFamily* family = FindFamily(name);
  if (family == nullptr) {
    return Status::InvalidArgument(StrFormat(
        "portfolio solver name '%s' must start with 'race:' or 'adaptive:'",
        name.c_str()));
  }
  const std::string prefix = Prefix(*family);
  std::vector<std::string> members = StrSplit(name.substr(prefix.size()), '+');
  if (members.size() < 2) {
    return Status::InvalidArgument(StrFormat(
        "%s solver name '%s' needs at least two '+'-separated members "
        "('%s<b1>+<b2>[+...]'); %s is just that backend",
        family->noun, name.c_str(), prefix.c_str(), family->of_one));
  }
  // The name grammar, checked on each member right before it resolves.
  const auto vet = [&](size_t i) {
    if (members[i].empty()) {
      return Status::InvalidArgument(
          StrFormat("%s solver name '%s' has an empty member at position %zu",
                    family->noun, name.c_str(), i));
    }
    for (const PortfolioFamily& other : kFamilies) {
      if (!StartsWith(members[i], Prefix(other))) continue;
      const std::string rule =
          &other == family
              ? StrFormat("nested %s backends are not supported", other.word)
              : StrFormat("%s backends cannot be %s members", other.word,
                          family->word);
      return Status::InvalidArgument(
          StrFormat("%s ('%s' inside '%s'): '+' would be ambiguous",
                    rule.c_str(), members[i].c_str(), name.c_str()));
    }
    return Status::Ok();
  };
  // Resolve (not just Contains) so a member's real diagnosis survives —
  // e.g. a malformed embedded topology spec stays InvalidArgument with the
  // spec error instead of collapsing into a generic NotFound. The built
  // backends are handed to the portfolio and reused by its solves.
  QDM_ASSIGN_OR_RETURN(
      std::vector<std::unique_ptr<QuboSolver>> member_solvers,
      CreateMembers(members, vet, [&](size_t i, const Status& status) {
        return Status(status.code(),
                      StrFormat("%s solver '%s' member '%s': %s", family->noun,
                                name.c_str(), members[i].c_str(),
                                status.message().c_str()));
      }));
  return std::unique_ptr<QuboSolver>(std::make_unique<PortfolioSolver>(
      name, std::move(members), std::move(member_solvers)));
}

bool RegisterPortfolioSolvers() {
  auto& registry = SolverRegistry::Global();
  for (const PortfolioFamily& family : kFamilies) {
    // Any well-formed "<prefix><b1>+<b2>+..." name resolves on demand.
    (void)registry.RegisterPrefix(Prefix(family), MakePortfolioSolver);
    // Eagerly register the canonical portfolio so it shows up in
    // RegisteredNames() (and is covered by the every-registered-backend
    // tests). AlreadyExists on re-entry is expected and harmless.
    const std::string name = Prefix(family) + "simulated_annealing+tabu_search";
    (void)registry.Register(name, [name] {
      Result<std::unique_ptr<QuboSolver>> solver = MakePortfolioSolver(name);
      QDM_CHECK(solver.ok()) << "default portfolio backend '" << name
                             << "' failed to build: " << solver.status();
      return std::move(solver).value();
    });
  }
  return true;
}

namespace {
[[maybe_unused]] const bool kPortfolioSolversRegistered =
    RegisterPortfolioSolvers();
}  // namespace

}  // namespace anneal
}  // namespace qdm
