#include <gtest/gtest.h>

#include <cmath>

#include "qdm/qnet/distributed_store.h"
#include "qdm/qnet/network.h"
#include "qdm/qnet/qkd.h"
#include "qdm/qnet/repeater.h"

namespace qdm {
namespace qnet {
namespace {

// ---------------------------------------------------------------------------
// Repeater chains (Figure 1c).

TEST(RepeaterChainTest, RateDecreasesWithDistance) {
  Rng rng(3);
  ChainConfig config;
  config.num_repeaters = 0;
  double prev_rate = 1e300;
  for (double km : {25.0, 75.0, 150.0}) {
    config.total_distance_km = km;
    DistributionStats stats = SimulateChain(config, 300, 1e9, &rng);
    ASSERT_GT(stats.pairs_delivered, 0) << km;
    EXPECT_LT(stats.rate_hz, prev_rate) << km;
    prev_rate = stats.rate_hz;
  }
}

TEST(RepeaterChainTest, RepeaterBeatsDirectAtLongDistance) {
  // The Fig. 1c claim: beyond the crossover, splitting the fiber with a
  // repeater wins because each segment's success probability is the square
  // root of the direct link's.
  Rng rng(5);
  ChainConfig config;
  config.total_distance_km = 200.0;  // Direct: 40 dB of loss.
  config.num_repeaters = 1;
  DistributionStats repeater = SimulateChain(config, 150, 1e9, &rng);
  DistributionStats direct = SimulateDirect(config, 150, 1e9, &rng);
  ASSERT_GT(repeater.pairs_delivered, 0);
  ASSERT_GT(direct.pairs_delivered, 0);
  EXPECT_GT(repeater.rate_hz, direct.rate_hz * 3)
      << "repeater should win decisively at 200 km";
}

TEST(RepeaterChainTest, DirectWinsAtShortDistance) {
  // Below the crossover the swap overhead dominates. (Heralding time scales
  // with segment length, so the repeater's toll is the swap success rate;
  // a lossy BSM makes the short-distance trade-off visible.)
  Rng rng(7);
  ChainConfig config;
  config.total_distance_km = 10.0;
  config.num_repeaters = 1;
  config.swap_success = 0.4;  // Pay a heavy swap toll.
  DistributionStats repeater = SimulateChain(config, 300, 1e9, &rng);
  DistributionStats direct = SimulateDirect(config, 300, 1e9, &rng);
  EXPECT_GT(direct.rate_hz, repeater.rate_hz);
}

TEST(RepeaterChainTest, FidelityDegradesAcrossSwaps) {
  Rng rng(9);
  ChainConfig config;
  config.total_distance_km = 120.0;
  config.memory_t_s = 0.005;  // Harsh memory so waiting hurts.
  config.num_repeaters = 0;
  DistributionStats direct = SimulateChain(config, 200, 1e9, &rng);
  config.num_repeaters = 3;
  DistributionStats chain = SimulateChain(config, 200, 1e9, &rng);
  ASSERT_GT(direct.pairs_delivered, 0);
  ASSERT_GT(chain.pairs_delivered, 0);
  EXPECT_LT(chain.mean_fidelity, direct.mean_fidelity);
  EXPECT_GT(chain.mean_fidelity, 0.25);
}

TEST(RepeaterChainTest, PurificationRaisesFidelity) {
  Rng rng(11);
  ChainConfig config;
  config.total_distance_km = 100.0;
  config.num_repeaters = 1;
  config.link.initial_fidelity = 0.9;
  DistributionStats plain = SimulateChain(config, 200, 1e9, &rng);
  config.purify_segments = true;
  DistributionStats purified = SimulateChain(config, 200, 1e9, &rng);
  ASSERT_GT(plain.pairs_delivered, 0);
  ASSERT_GT(purified.pairs_delivered, 0);
  EXPECT_GT(purified.mean_fidelity, plain.mean_fidelity);
  // Purification costs pairs: rate must drop.
  EXPECT_LT(purified.rate_hz, plain.rate_hz);
}

// ---------------------------------------------------------------------------
// BB84.

TEST(Bb84Test, CleanChannelYieldsKey) {
  Rng rng(13);
  Bb84Config config;
  config.num_raw_bits = 8192;
  config.channel_error = 0.0;
  Bb84Result result = RunBb84(config, &rng);
  EXPECT_FALSE(result.aborted);
  // Sifting keeps ~half the bits.
  EXPECT_NEAR(result.sifted_bits, 4096, 300);
  EXPECT_NEAR(result.estimated_qber, 0.0, 0.01);
  EXPECT_EQ(result.actual_error_rate, 0.0);
  EXPECT_GT(result.secure_key_bits, 2000);
  EXPECT_FALSE(result.key.empty());
}

TEST(Bb84Test, NoisyChannelReducesKeyRate) {
  Rng rng(17);
  Bb84Config config;
  config.num_raw_bits = 16384;
  config.channel_error = 0.05;
  Bb84Result result = RunBb84(config, &rng);
  EXPECT_FALSE(result.aborted);
  EXPECT_NEAR(result.estimated_qber, 0.05, 0.02);
  const double fraction =
      result.secure_key_bits / std::max(1, result.sifted_bits);
  EXPECT_LT(fraction, 1.0 - 2 * BinaryEntropy(0.03));
  EXPECT_GT(fraction, 0.0);
}

TEST(Bb84Test, EavesdropperIsDetectedAndAborts) {
  // Intercept-resend induces ~25% QBER, far above the 11% threshold: the
  // security promise of Sec IV-B.
  Rng rng(19);
  Bb84Config config;
  config.num_raw_bits = 8192;
  config.channel_error = 0.0;
  config.eavesdropper = true;
  Bb84Result result = RunBb84(config, &rng);
  EXPECT_TRUE(result.aborted);
  EXPECT_NEAR(result.estimated_qber, 0.25, 0.03);
  EXPECT_EQ(result.secure_key_bits, 0.0);
  EXPECT_TRUE(result.key.empty());
}

TEST(Bb84Test, KeysAgreeOnCleanChannel) {
  Rng rng(23);
  Bb84Config config;
  config.num_raw_bits = 2048;
  config.channel_error = 0.0;
  Bb84Result result = RunBb84(config, &rng);
  ASSERT_FALSE(result.aborted);
  EXPECT_EQ(result.actual_error_rate, 0.0)
      << "with a noiseless channel Alice and Bob's keys must agree exactly";
}

TEST(Bb84Test, BinaryEntropyShape) {
  EXPECT_DOUBLE_EQ(BinaryEntropy(0.0), 0.0);
  EXPECT_DOUBLE_EQ(BinaryEntropy(1.0), 0.0);
  EXPECT_DOUBLE_EQ(BinaryEntropy(0.5), 1.0);
  EXPECT_NEAR(BinaryEntropy(0.11), 0.4999, 0.01);  // The BB84 threshold.
}

// ---------------------------------------------------------------------------
// Network routing.

QuantumNetwork LineNetwork(int nodes, double hop_km) {
  QuantumNetwork net;
  for (int i = 0; i < nodes; ++i) net.AddNode("N" + std::to_string(i));
  FiberLinkConfig link;
  link.length_km = hop_km;
  for (int i = 0; i + 1 < nodes; ++i) {
    QDM_CHECK(net.AddLink(i, i + 1, link).ok());
  }
  return net;
}

TEST(NetworkTest, RoutesAlongShortestPath) {
  QuantumNetwork net = LineNetwork(4, 50);
  // Add a long shortcut 0 - 3 that should NOT be preferred.
  FiberLinkConfig shortcut;
  shortcut.length_km = 500;
  ASSERT_TRUE(net.AddLink(0, 3, shortcut).ok());

  auto route = net.Route(0, 3);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(*route, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_DOUBLE_EQ(net.RouteLength(*route), 150);
}

TEST(NetworkTest, FaultInjectionForcesRerouteOrFailure) {
  QuantumNetwork net = LineNetwork(3, 40);
  ASSERT_TRUE(net.SetLinkUp(0, 1, false).ok());
  EXPECT_EQ(net.Route(0, 2).status().code(), StatusCode::kNotFound);

  // Add an alternate path and reroute.
  FiberLinkConfig alt;
  alt.length_km = 90;
  ASSERT_TRUE(net.AddLink(0, 2, alt).ok());
  auto route = net.Route(0, 2);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(*route, (std::vector<int>{0, 2}));

  // Repair the link: the two-hop path (80 km) beats the direct 90 km.
  ASSERT_TRUE(net.SetLinkUp(0, 1, true).ok());
  route = net.Route(0, 2);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(*route, (std::vector<int>{0, 1, 2}));
}

TEST(NetworkTest, DistributeEntanglementAlongRoute) {
  Rng rng(29);
  QuantumNetwork net = LineNetwork(3, 30);
  auto route = net.Route(0, 2);
  ASSERT_TRUE(route.ok());
  double now = 0.0;
  auto pair = net.DistributeEntanglement(*route, 1.0, 0.9, &now, &rng);
  ASSERT_TRUE(pair.ok());
  EXPECT_GT(pair->fidelity, 0.9);
  EXPECT_GT(now, 0.0);
}

// ---------------------------------------------------------------------------
// Distributed store (Sec IV-B).

DistributedQuantumStore MakeStore(Rng* rng) {
  return DistributedQuantumStore(LineNetwork(3, 30),
                                 DistributedQuantumStore::Options{}, rng);
}

TEST(DistributedStoreTest, ClassicalReplicationViaQkd) {
  Rng rng(31);
  DistributedQuantumStore store = MakeStore(&rng);
  ASSERT_TRUE(store.PutClassical(0, "customers", "id,name\n1,ada\n").ok());
  ASSERT_TRUE(store.ReplicateClassical("customers", 2).ok());

  auto locations = store.ClassicalLocations("customers");
  ASSERT_TRUE(locations.ok());
  EXPECT_EQ(*locations, (std::set<int>{0, 2}));
  auto payload = store.ReadClassical("customers", 2);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(*payload, "id,name\n1,ada\n");
  EXPECT_GE(store.stats().qkd_sessions, 1);
  EXPECT_GT(store.stats().qkd_secure_bits, 0.0);
}

TEST(DistributedStoreTest, QuantumReplicationIsForbidden) {
  Rng rng(37);
  DistributedQuantumStore store = MakeStore(&rng);
  ASSERT_TRUE(store.PutQuantum(0, "token", Qubit::FromAngles(0.7, 0.2)).ok());
  Status status = store.ReplicateQuantum("token", 2);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("no-cloning"), std::string::npos);
  // The uniform replicate API routes quantum keys to the same error.
  EXPECT_EQ(store.ReplicateClassical("token", 2).code(),
            StatusCode::kFailedPrecondition);
}

TEST(DistributedStoreTest, QuantumMigrationMovesAndConsumesEntanglement) {
  Rng rng(41);
  DistributedQuantumStore store = MakeStore(&rng);
  ASSERT_TRUE(store.PutQuantum(0, "token", Qubit::FromAngles(1.2, 0.4)).ok());
  ASSERT_TRUE(store.MigrateQuantum("token", 2).ok());
  auto location = store.QuantumLocation("token");
  ASSERT_TRUE(location.ok());
  EXPECT_EQ(*location, 2);
  EXPECT_EQ(store.stats().teleports, 1);
  EXPECT_EQ(store.stats().epr_pairs_consumed, 1);
  auto fidelity = store.QuantumFidelity("token");
  ASSERT_TRUE(fidelity.ok());
  EXPECT_GT(*fidelity, 0.0);
}

TEST(DistributedStoreTest, RepeatedMigrationDegradesFidelityOnAverage) {
  Rng rng(43);
  double total = 0.0;
  const int kTrials = 60;
  for (int t = 0; t < kTrials; ++t) {
    DistributedQuantumStore::Options options;
    options.memory_t_s = 0.001;  // Harsh memories -> imperfect pairs.
    DistributedQuantumStore store(LineNetwork(3, 60), options, &rng);
    ASSERT_TRUE(store.PutQuantum(0, "q", Qubit::FromAngles(0.9, 0.3)).ok());
    for (int hop = 0; hop < 4; ++hop) {
      ASSERT_TRUE(store.MigrateQuantum("q", (hop % 2) ? 0 : 2).ok());
    }
    auto fidelity = store.QuantumFidelity("q");
    ASSERT_TRUE(fidelity.ok());
    total += *fidelity;
  }
  const double mean = total / kTrials;
  EXPECT_LT(mean, 0.999) << "imperfect pairs must leave a trace";
  EXPECT_GT(mean, 0.5) << "but the channel should still be mostly faithful";
}

TEST(DistributedStoreTest, MigrationFailsWhenPartitioned) {
  Rng rng(47);
  DistributedQuantumStore store = MakeStore(&rng);
  ASSERT_TRUE(store.PutQuantum(0, "q", Qubit::Zero()).ok());
  ASSERT_TRUE(store.network().SetLinkUp(1, 2, false).ok());
  EXPECT_EQ(store.MigrateQuantum("q", 2).code(), StatusCode::kNotFound);
  // Heal and retry.
  ASSERT_TRUE(store.network().SetLinkUp(1, 2, true).ok());
  EXPECT_TRUE(store.MigrateQuantum("q", 2).ok());
}

TEST(DistributedStoreTest, KeyNamespaceIsShared) {
  Rng rng(53);
  DistributedQuantumStore store = MakeStore(&rng);
  ASSERT_TRUE(store.PutClassical(0, "k", "v").ok());
  EXPECT_EQ(store.PutQuantum(1, "k", Qubit::Zero()).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(store.PutClassical(1, "k", "w").code(), StatusCode::kAlreadyExists);
}

}  // namespace
}  // namespace qnet
}  // namespace qdm
