#include "qdm/anneal/backend_cache.h"

#include <map>
#include <mutex>
#include <utility>

namespace qdm {
namespace anneal {

namespace {

/// One mutex guards both maps and the counters. Misses construct under the
/// lock (see the header: that IS the single-construction guarantee), so a
/// hit never observes a half-built entry and TSan sees every access
/// ordered. Intentionally leaked, like SolverRegistry::Global(), so cached
/// artifacts stay usable from any shutdown context.
struct CacheState {
  std::mutex mutex;
  std::map<std::string, std::shared_ptr<const HardwareTopology>> topologies;
  // Two-level (canonical name, num_logical) keying: EmbeddedSolver::Solve
  // takes this lookup on EVERY solve, so the hot path must not allocate a
  // formatted composite key per call.
  std::map<std::string, std::map<int, std::shared_ptr<const Embedding>>>
      embeddings;
  BackendCacheStats stats;
};

CacheState& State() {
  static CacheState* state = new CacheState();
  return *state;
}

}  // namespace

Result<std::shared_ptr<const HardwareTopology>> GetCachedTopology(
    const std::string& spec) {
  CacheState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  auto it = state.topologies.find(spec);
  if (it != state.topologies.end()) {
    ++state.stats.topology_hits;
    return it->second;
  }
  QDM_ASSIGN_OR_RETURN(std::unique_ptr<HardwareTopology> built,
                       MakeTopology(spec));
  std::shared_ptr<const HardwareTopology> topology(std::move(built));
  ++state.stats.topology_constructions;
  state.topologies[spec] = topology;
  // Alias the canonical spelling too ("zephyr:4" -> "zephyr:4x4"), so the
  // other spelling hits the same instance instead of rebuilding it.
  state.topologies.emplace(topology->name(), topology);
  return topology;
}

Result<std::shared_ptr<const Embedding>> GetCachedCliqueEmbedding(
    int num_logical, const HardwareTopology& topology) {
  const std::string name = topology.name();
  CacheState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  std::map<int, std::shared_ptr<const Embedding>>& plans =
      state.embeddings[name];
  auto it = plans.find(num_logical);
  if (it != plans.end()) {
    ++state.stats.embedding_hits;
    return it->second;
  }
  QDM_ASSIGN_OR_RETURN(Embedding built, CliqueEmbedding(num_logical, topology));
  auto embedding = std::make_shared<const Embedding>(std::move(built));
  ++state.stats.embedding_constructions;
  plans[num_logical] = embedding;
  return embedding;
}

BackendCacheStats GetBackendCacheStats() {
  CacheState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  return state.stats;
}

}  // namespace anneal
}  // namespace qdm
