// Data management over the quantum internet (paper Sec IV): a three-node
// network (Fig. 1c: two end nodes and a repeater), QKD-secured replication of
// classical data, eavesdropper detection, and the no-cloning asymmetry for
// quantum data (replication refused; migration by teleportation).
//
// Build & run:  ./build/examples/secure_replication

#include <cstdio>

#include "qdm/common/rng.h"
#include "qdm/qnet/distributed_store.h"
#include "qdm/qnet/qkd.h"

int main() {
  qdm::Rng rng(11);

  // Amsterdam -- (repeater) -- San Francisco, 2 x 60 km segments.
  qdm::qnet::QuantumNetwork network;
  const int amsterdam = network.AddNode("amsterdam");
  const int repeater = network.AddNode("repeater");
  const int san_francisco = network.AddNode("san_francisco");
  qdm::qnet::FiberLinkConfig fiber;
  fiber.length_km = 60;
  QDM_CHECK(network.AddLink(amsterdam, repeater, fiber).ok());
  QDM_CHECK(network.AddLink(repeater, san_francisco, fiber).ok());

  qdm::qnet::DistributedQuantumStore store(
      network, qdm::qnet::DistributedQuantumStore::Options{}, &rng);

  // -- Classical data: replicate under a BB84-derived one-time pad. ----------
  std::printf("== Classical replication over QKD ==\n");
  QDM_CHECK(store.PutClassical(amsterdam, "orders", "order_id,total\n17,99.5\n")
                .ok());
  qdm::Status replicated = store.ReplicateClassical("orders", san_francisco);
  std::printf("replicate 'orders' -> san_francisco: %s\n",
              replicated.ToString().c_str());
  std::printf("QKD sessions: %d, secure bits banked: %.0f\n\n",
              store.stats().qkd_sessions, store.stats().qkd_secure_bits);

  // -- Eavesdropper detection on the raw QKD layer. ---------------------------
  std::printf("== BB84 with an intercept-resend eavesdropper ==\n");
  qdm::qnet::Bb84Config tapped;
  tapped.num_raw_bits = 4096;
  tapped.eavesdropper = true;
  qdm::qnet::Bb84Result session = qdm::qnet::RunBb84(tapped, &rng);
  std::printf("estimated QBER %.1f%% -> %s\n\n", 100 * session.estimated_qber,
              session.aborted ? "ABORTED (Eve detected)" : "key accepted");

  // -- Quantum data: no-cloning forbids replication; teleport instead. -------
  std::printf("== Quantum payloads ==\n");
  QDM_CHECK(store
                .PutQuantum(amsterdam, "qtoken",
                            qdm::qnet::Qubit::FromAngles(1.0, 0.3))
                .ok());
  qdm::Status refused = store.ReplicateQuantum("qtoken", san_francisco);
  std::printf("replicate 'qtoken': %s\n", refused.ToString().c_str());

  QDM_CHECK(store.MigrateQuantum("qtoken", san_francisco).ok());
  std::printf(
      "migrated 'qtoken' to node %d via teleportation "
      "(EPR pairs consumed: %d)\n",
      *store.QuantumLocation("qtoken"), store.stats().epr_pairs_consumed);
  std::printf("payload fidelity after migration: %.4f\n",
              *store.QuantumFidelity("qtoken"));

  // Note: the Qubit type is move-only; `Qubit copy = q;` does not compile.
  // That is the no-cloning theorem enforced by the type system.
  return 0;
}
