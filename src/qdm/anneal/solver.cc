#include "qdm/anneal/solver.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <utility>

#include "qdm/anneal/exact_solver.h"
#include "qdm/anneal/parallel_tempering.h"
#include "qdm/anneal/simulated_annealing.h"
#include "qdm/anneal/tabu_search.h"
#include "qdm/common/strings.h"
#include "qdm/common/thread_pool.h"

namespace qdm {
namespace anneal {

Status AnnotateBatchInstanceError(const Status& status, size_t index,
                                  size_t batch_size) {
  if (batch_size <= 1) return status;
  return Status(status.code(), StrFormat("batch instance %zu: %s", index,
                                         status.message().c_str()));
}

Result<std::vector<Sample>> BestOfEach(const std::vector<SampleSet>& sets,
                                       const std::string& solver_name) {
  std::vector<Sample> best;
  best.reserve(sets.size());
  for (size_t i = 0; i < sets.size(); ++i) {
    if (sets[i].empty()) {
      return AnnotateBatchInstanceError(
          Status::Internal(StrFormat("solver '%s' returned an empty sample "
                                     "set",
                                     solver_name.c_str())),
          i, sets.size());
    }
    best.push_back(sets[i].best());
  }
  return best;
}

SolverOptions DeriveBatchOptions(const SolverOptions& options, size_t index) {
  SolverOptions derived = options;
  derived.rng = nullptr;
  derived.seed = options.seed + static_cast<uint64_t>(index);
  return derived;
}

namespace {

/// The batch entry points' one Rng rule: a caller-shared Rng is honored only
/// by a strictly sequential batch.
Status CheckBatchRng(const SolverOptions& options, int num_threads) {
  if (num_threads == 1 || options.rng == nullptr) return Status::Ok();
  return Status::InvalidArgument(
      "SolveBatchParallel with num_threads != 1 requires seed-based "
      "randomness (options.rng must be null): a shared Rng cannot be "
      "fanned out deterministically");
}

}  // namespace

Result<std::vector<SampleSet>> QuboSolver::SolveBatch(
    const std::vector<Qubo>& qubos, const SolverOptions& options,
    int num_threads) {
  QDM_RETURN_IF_ERROR(CheckBatchRng(options, num_threads));
  // Before the fan-out, so an options error is reported bare, as
  // SolveBatchParallel reports it, not framed as instance 0's.
  QDM_RETURN_IF_ERROR(ValidateSolverOptions(options));
  if (num_threads <= 0) num_threads = ThreadPool::DefaultNumThreads();
  const size_t n = qubos.size();
  // One backend per WORKER, not per instance: construction is not assumed
  // trivial — an embedded:* backend builds a topology graph (amortized by
  // backend_cache.h, but still not free) — so each worker gets one backend
  // up front and reuses it across every instance it drains. Building them
  // here, before the fan-out, keeps the construction count a pure function
  // of (num_threads, n) and surfaces a Create error before any solve.
  const int workers = std::min(num_threads, static_cast<int>(n));
  std::vector<std::unique_ptr<QuboSolver>> owned;
  std::vector<QuboSolver*> backends = {this};
  for (int w = 1; w < workers; ++w) {
    QDM_ASSIGN_OR_RETURN(std::unique_ptr<QuboSolver> backend,
                         SolverRegistry::Global().Create(name()));
    backends.push_back(backend.get());
    owned.push_back(std::move(backend));
  }
  std::vector<SampleSet> results(n);
  std::vector<Status> statuses(n);
  // Instances past the lowest failure so far are skipped: at one worker
  // that is the sequential reference's stop-at-first-failure, and with more
  // every lower index was claimed earlier, so it still runs to completion.
  std::atomic<size_t> first_failure{n};
  ThreadPool::Shared().ForEach(
      static_cast<int>(n), workers, [&](int worker, int index) {
        const size_t i = static_cast<size_t>(index);
        if (i > first_failure.load()) return;
        Result<SampleSet> result = backends[worker]->Solve(
            qubos[i],
            options.rng != nullptr ? options : DeriveBatchOptions(options, i));
        if (result.ok()) {
          results[i] = std::move(result).value();
          return;
        }
        statuses[i] = result.status();
        size_t seen = first_failure.load();
        while (i < seen) {
          if (first_failure.compare_exchange_weak(seen, i)) break;
        }
      });
  const size_t failed = first_failure.load();
  if (failed < n) {
    return AnnotateBatchInstanceError(statuses[failed], failed, n);
  }
  return results;
}

Result<std::vector<SampleSet>> SolveBatchParallel(
    const std::string& solver_name, const std::vector<Qubo>& qubos,
    const SolverOptions& options, int num_threads) {
  QDM_RETURN_IF_ERROR(CheckBatchRng(options, num_threads));
  QDM_RETURN_IF_ERROR(ValidateSolverOptions(options));
  QDM_ASSIGN_OR_RETURN(std::unique_ptr<QuboSolver> solver,
                       SolverRegistry::Global().Create(solver_name));
  return solver->SolveBatch(qubos, options, num_threads);
}

Rng* ResolveSolverRng(const SolverOptions& options,
                      std::optional<Rng>* storage) {
  if (options.rng != nullptr) return options.rng;
  if (options.seed != 0) {
    storage->emplace(options.seed);
  } else {
    storage->emplace();
  }
  return &storage->value();
}

Status ValidateSolverOptions(const SolverOptions& options) {
  if (options.num_reads <= 0) {
    return Status::InvalidArgument(
        StrFormat("num_reads must be positive, got %d", options.num_reads));
  }
  // The inverse-temperature ladder is auto-scaled when unset (both <= 0);
  // a half-set pair is a misuse the annealing backends would otherwise turn
  // into an abort (simulated_annealing) or NaN betas (parallel_tempering).
  const bool min_set = options.beta_min > 0.0;
  const bool max_set = options.beta_max > 0.0;
  if (options.beta_min < 0.0 || options.beta_max < 0.0) {
    return Status::InvalidArgument(
        StrFormat("beta_min/beta_max must be non-negative, got %g/%g",
                  options.beta_min, options.beta_max));
  }
  // NaN fails both tests above and would read as "auto" below; NaN or inf
  // betas make the sweeps reject every uphill move.
  if (!std::isfinite(options.beta_min) || !std::isfinite(options.beta_max)) {
    return Status::InvalidArgument(
        StrFormat("beta_min/beta_max must be finite, got %g/%g",
                  options.beta_min, options.beta_max));
  }
  if (min_set != max_set) {
    return Status::InvalidArgument(StrFormat(
        "beta_min and beta_max must be set together (got %g/%g); leave both "
        "at 0 for auto-scaling",
        options.beta_min, options.beta_max));
  }
  if (min_set && options.beta_min > options.beta_max) {
    return Status::InvalidArgument(
        StrFormat("beta_min (%g) must not exceed beta_max (%g)",
                  options.beta_min, options.beta_max));
  }
  return Status::Ok();
}

SolverRegistry& SolverRegistry::Global() {
  static SolverRegistry* registry = new SolverRegistry();
  return *registry;
}

SolverRegistry::SolverRegistry() {
  factories_["simulated_annealing"] = [] {
    return std::make_unique<SimulatedAnnealer>();
  };
  factories_["parallel_tempering"] = [] {
    return std::make_unique<ParallelTempering>();
  };
  factories_["tabu_search"] = [] { return std::make_unique<TabuSearch>(); };
  factories_["exact"] = [] { return std::make_unique<ExactSolver>(); };
}

Status SolverRegistry::Register(const std::string& name, Factory factory) {
  QDM_CHECK(factory != nullptr) << "null factory for solver " << name;
  std::lock_guard<std::mutex> lock(mutex_);
  if (factories_.count(name) > 0) {
    return Status::AlreadyExists(
        StrFormat("solver '%s' is already registered", name.c_str()));
  }
  factories_[name] = std::move(factory);
  return Status::Ok();
}

Status SolverRegistry::RegisterPrefix(const std::string& prefix,
                                      DynamicFactory factory) {
  QDM_CHECK(factory != nullptr) << "null dynamic factory for " << prefix;
  QDM_CHECK(!prefix.empty());
  std::lock_guard<std::mutex> lock(mutex_);
  if (prefix_factories_.count(prefix) > 0) {
    return Status::AlreadyExists(
        StrFormat("solver prefix '%s' is already registered", prefix.c_str()));
  }
  prefix_factories_[prefix] = std::move(factory);
  return Status::Ok();
}

bool SolverRegistry::Contains(const std::string& name) const {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (factories_.count(name) > 0) return true;
  }
  // Fall back to the prefix resolvers: a name they accept is creatable and
  // therefore "contained". Create() copies the resolver and invokes it
  // outside the lock, so resolvers may re-enter the registry.
  return Create(name).ok();
}

std::vector<std::string> SolverRegistry::RegisteredNames() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) names.push_back(name);
  return names;
}

Result<std::unique_ptr<QuboSolver>> SolverRegistry::Create(
    const std::string& name) const {
  Factory factory;
  DynamicFactory dynamic;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = factories_.find(name);
    if (it != factories_.end()) {
      factory = it->second;
    } else {
      // Longest matching prefix wins; invoked outside the lock below so the
      // resolver may re-enter the registry (e.g. to validate a base name).
      size_t best_len = 0;
      for (const auto& [prefix, resolver] : prefix_factories_) {
        if (prefix.size() >= best_len && StartsWith(name, prefix)) {
          best_len = prefix.size();
          dynamic = resolver;
        }
      }
    }
  }
  if (factory != nullptr) return factory();
  if (dynamic != nullptr) return dynamic(name);
  return Status::NotFound(
      StrFormat("no QUBO solver registered under '%s' (registered: %s)",
                name.c_str(), StrJoin(RegisteredNames(), ", ").c_str()));
}

Result<SampleSet> SolveWith(const std::string& solver_name, const Qubo& qubo,
                            const SolverOptions& options) {
  QDM_ASSIGN_OR_RETURN(std::unique_ptr<QuboSolver> solver,
                       SolverRegistry::Global().Create(solver_name));
  return solver->Solve(qubo, options);
}

Result<Sample> SolveForBest(const std::string& solver_name, const Qubo& qubo,
                            const SolverOptions& options) {
  QDM_ASSIGN_OR_RETURN(SampleSet samples,
                       SolveWith(solver_name, qubo, options));
  if (samples.empty()) {
    return Status::Internal(StrFormat(
        "solver '%s' returned an empty sample set", solver_name.c_str()));
  }
  return samples.best();
}

}  // namespace anneal
}  // namespace qdm
