// The process-wide backend construction cache (backend_cache.h): cache hits
// return the IDENTICAL topology/embedding instance (pointer equality, not
// just structural equality), concurrent first-touch from many threads
// yields exactly one construction, alias spellings share one instance,
// entries are immutable and never evicted, the error taxonomy passes
// through uncached, and cached artifacts are bit-identical to freshly
// built ones.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "qdm/anneal/backend_cache.h"
#include "qdm/anneal/embedding.h"
#include "qdm/anneal/solver.h"
#include "qdm/anneal/topology.h"
#include "qdm/common/status.h"

namespace qdm {
namespace anneal {
namespace {

TEST(BackendCacheTest, HitReturnsIdenticalTopologyPointer) {
  auto first = GetCachedTopology("chimera:3x3x4");
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = GetCachedTopology("chimera:3x3x4");
  ASSERT_TRUE(second.ok()) << second.status();
  // The contract is sharing, not equality: the same shared_ptr comes back.
  EXPECT_EQ(first->get(), second->get());
  EXPECT_EQ((*first)->name(), "chimera:3x3x4");
}

TEST(BackendCacheTest, AliasSpellingsShareOneInstance) {
  // "zephyr:5" parses to canonical "zephyr:5x4"; both spellings must hit
  // the same cached instance (whichever spelling came first).
  auto shorthand = GetCachedTopology("zephyr:5");
  ASSERT_TRUE(shorthand.ok()) << shorthand.status();
  ASSERT_EQ((*shorthand)->name(), "zephyr:5x4");
  auto canonical = GetCachedTopology("zephyr:5x4");
  ASSERT_TRUE(canonical.ok()) << canonical.status();
  EXPECT_EQ(shorthand->get(), canonical->get());
}

TEST(BackendCacheTest, ConcurrentFirstTouchConstructsOnce) {
  // 8 threads race the first touch of a spec no other test uses. The
  // construction counter must advance by exactly one, and every thread
  // must observe the same instance.
  const std::string spec = "chimera:5x5x4";
  const BackendCacheStats before = GetBackendCacheStats();
  std::vector<std::shared_ptr<const HardwareTopology>> seen(8);
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&seen, &spec, i] {
      auto topology = GetCachedTopology(spec);
      QDM_CHECK(topology.ok()) << topology.status();
      seen[i] = std::move(topology).value();
    });
  }
  for (std::thread& thread : threads) thread.join();
  const BackendCacheStats after = GetBackendCacheStats();
  EXPECT_EQ(after.topology_constructions - before.topology_constructions, 1u);
  EXPECT_EQ(after.topology_hits - before.topology_hits, 7u);
  for (int i = 1; i < 8; ++i) EXPECT_EQ(seen[i].get(), seen[0].get());
}

TEST(BackendCacheTest, ConcurrentFirstTouchEmbeddingConstructsOnce) {
  auto topology = GetCachedTopology("pegasus:4");
  ASSERT_TRUE(topology.ok()) << topology.status();
  // A problem size no other test asks pegasus:4 for.
  const int num_logical = 11;
  const BackendCacheStats before = GetBackendCacheStats();
  std::vector<std::shared_ptr<const Embedding>> seen(8);
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&seen, &topology, num_logical, i] {
      auto plan = GetCachedCliqueEmbedding(num_logical, **topology);
      QDM_CHECK(plan.ok()) << plan.status();
      seen[i] = std::move(plan).value();
    });
  }
  for (std::thread& thread : threads) thread.join();
  const BackendCacheStats after = GetBackendCacheStats();
  EXPECT_EQ(after.embedding_constructions - before.embedding_constructions,
            1u);
  EXPECT_EQ(after.embedding_hits - before.embedding_hits, 7u);
  for (int i = 1; i < 8; ++i) EXPECT_EQ(seen[i].get(), seen[0].get());
  EXPECT_EQ(seen[0]->num_logical(), num_logical);
}

TEST(BackendCacheTest, CachedEmbeddingMatchesFreshConstruction) {
  auto topology = GetCachedTopology("chimera:4x4x4");
  ASSERT_TRUE(topology.ok()) << topology.status();
  auto cached = GetCachedCliqueEmbedding(6, **topology);
  ASSERT_TRUE(cached.ok()) << cached.status();
  auto fresh = CliqueEmbedding(6, **topology);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_EQ((*cached)->chains, fresh->chains);
}

TEST(BackendCacheTest, EvictionFreeImmutability) {
  // The instance observed on first touch is still the instance served
  // after arbitrary other traffic — nothing is evicted or rebuilt.
  auto first = GetCachedTopology("chimera:2x2x4");
  ASSERT_TRUE(first.ok()) << first.status();
  const HardwareTopology* raw = first->get();
  const int qubits = raw->num_qubits();
  for (const char* spec : {"chimera:4x4x4", "pegasus:6", "zephyr:4",
                           "chimera:2x2x4", "pegasus:4"}) {
    auto other = GetCachedTopology(spec);
    ASSERT_TRUE(other.ok()) << spec << ": " << other.status();
  }
  auto again = GetCachedTopology("chimera:2x2x4");
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->get(), raw);
  EXPECT_EQ((*again)->num_qubits(), qubits);
}

TEST(BackendCacheTest, MalformedSpecsPassThroughUncached) {
  const BackendCacheStats before = GetBackendCacheStats();
  for (const char* spec :
       {"torus:9", "chimera:4x4", "pegasus:1", "zephyr:0", ""}) {
    auto result = GetCachedTopology(spec);
    ASSERT_FALSE(result.ok()) << spec;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << spec;
  }
  const BackendCacheStats after = GetBackendCacheStats();
  // Errors neither construct nor hit.
  EXPECT_EQ(after.topology_constructions, before.topology_constructions);
  EXPECT_EQ(after.topology_hits, before.topology_hits);
}

TEST(BackendCacheTest, OversizedEmbeddingPassesThroughUncached) {
  auto topology = GetCachedTopology("chimera:1x1x4");
  ASSERT_TRUE(topology.ok()) << topology.status();
  auto plan =
      GetCachedCliqueEmbedding((*topology)->CliqueCapacity() + 1, **topology);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kResourceExhausted);
}

TEST(BackendCacheTest, EmbeddedBackendCreationSharesTopology) {
  // Two embedded:* backends over the same spec share one cached topology:
  // creating the second must not construct.
  auto probe = SolverRegistry::Global().Create(
      "embedded:simulated_annealing:pegasus:6");
  ASSERT_TRUE(probe.ok()) << probe.status();
  const BackendCacheStats before = GetBackendCacheStats();
  auto again = SolverRegistry::Global().Create(
      "embedded:tabu_search:pegasus:6");
  ASSERT_TRUE(again.ok()) << again.status();
  const BackendCacheStats after = GetBackendCacheStats();
  EXPECT_EQ(after.topology_constructions, before.topology_constructions);
  EXPECT_EQ(after.topology_hits - before.topology_hits, 1u);
}

TEST(BackendCacheTest, BatchBuildsOneBackendPerWorker) {
  // A batch builds min(num_threads, batch size) backends — the created one
  // plus one re-Created per extra worker — never one per instance. Once
  // the spec is warm every embedded:* creation is one topology hit, so the
  // hit delta counts the backends the batch built.
  const std::string name = "embedded:simulated_annealing:chimera:3x3x4";
  ASSERT_TRUE(SolverRegistry::Global().Create(name).ok());
  std::vector<Qubo> qubos;
  for (int k = 0; k < 6; ++k) {
    Qubo qubo(3);
    qubo.AddLinear(0, -1.0 - k);
    qubo.AddQuadratic(0, 1, 0.5);
    qubo.AddQuadratic(1, 2, -1.0);
    qubos.push_back(qubo);
  }
  SolverOptions options;
  options.num_reads = 2;
  options.num_sweeps = 20;
  options.seed = 3;
  const int kThreads[] = {1, 2, 4, 8};
  const uint64_t kBackends[] = {1, 2, 4, 6};
  for (int t = 0; t < 4; ++t) {
    const BackendCacheStats before = GetBackendCacheStats();
    auto batch = SolveBatchParallel(name, qubos, options, kThreads[t]);
    ASSERT_TRUE(batch.ok()) << batch.status();
    const BackendCacheStats after = GetBackendCacheStats();
    EXPECT_EQ(after.topology_hits - before.topology_hits, kBackends[t])
        << kThreads[t] << " threads";
    EXPECT_EQ(after.topology_constructions, before.topology_constructions)
        << kThreads[t] << " threads";
  }
}

}  // namespace
}  // namespace anneal
}  // namespace qdm
