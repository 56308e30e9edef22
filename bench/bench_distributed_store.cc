// E13 -- Paper Sec IV-B(1,2): data management when data cannot be copied.
// Regenerates the placement-cost series: replicating classical objects vs
// migrating quantum objects across a 4-node line network, the fidelity decay
// of repeatedly migrated quantum payloads, and fault-injected rerouting.

#include <cstdio>

#include "qdm/common/rng.h"
#include "qdm/common/strings.h"
#include "qdm/common/table_printer.h"
#include "qdm/qnet/distributed_store.h"

namespace {

qdm::qnet::QuantumNetwork LineNetwork(int nodes, double hop_km) {
  qdm::qnet::QuantumNetwork net;
  for (int i = 0; i < nodes; ++i) net.AddNode(qdm::StrFormat("dc%d", i));
  qdm::qnet::FiberLinkConfig link;
  link.length_km = hop_km;
  for (int i = 0; i + 1 < nodes; ++i) {
    QDM_CHECK(net.AddLink(i, i + 1, link).ok());
  }
  return net;
}

}  // namespace

int main() {
  qdm::Rng rng(2024);

  // Classical replication vs quantum migration over increasing distance.
  qdm::TablePrinter table({"hops", "classical replicate", "QKD bits used",
                           "quantum migrate", "EPR pairs", "payload fidelity"});
  for (int hops : {1, 2, 3}) {
    qdm::qnet::DistributedQuantumStore store(
        LineNetwork(hops + 1, 40),
        qdm::qnet::DistributedQuantumStore::Options{}, &rng);
    QDM_CHECK(store.PutClassical(0, "ledger", "txn,amount\n901,12.5\n").ok());
    QDM_CHECK(store
                  .PutQuantum(0, "qcredential",
                              qdm::qnet::Qubit::FromAngles(0.8, 0.4))
                  .ok());

    qdm::Status replicate = store.ReplicateClassical("ledger", hops);
    qdm::Status migrate = store.MigrateQuantum("qcredential", hops);
    table.AddRow(
        {qdm::StrFormat("%d", hops),
         replicate.ok() ? "ok" : replicate.ToString(),
         qdm::StrFormat("%.0f", store.stats().qkd_secure_bits),
         migrate.ok() ? "ok" : migrate.ToString(),
         qdm::StrFormat("%d", store.stats().epr_pairs_consumed),
         qdm::StrFormat("%.4f", *store.QuantumFidelity("qcredential"))});
  }
  std::printf("E13: classical replication vs quantum migration\n%s\n",
              table.ToString().c_str());

  // Fidelity decay with repeated migration under weak memories.
  qdm::TablePrinter decay({"migrations", "mean payload fidelity (40 trials)"});
  for (int migrations : {1, 2, 4, 8}) {
    double total = 0.0;
    for (int t = 0; t < 40; ++t) {
      qdm::qnet::DistributedQuantumStore::Options options;
      options.memory_t_s = 0.002;
      qdm::qnet::DistributedQuantumStore store(LineNetwork(3, 60), options,
                                               &rng);
      QDM_CHECK(store.PutQuantum(0, "q", qdm::qnet::Qubit::FromAngles(1.1, 0.2))
                    .ok());
      for (int m = 0; m < migrations; ++m) {
        QDM_CHECK(store.MigrateQuantum("q", (m % 2) ? 0 : 2).ok());
      }
      total += *store.QuantumFidelity("q");
    }
    decay.AddRow(
        {qdm::StrFormat("%d", migrations), qdm::StrFormat("%.4f", total / 40)});
  }
  std::printf(
      "Quantum payload fidelity vs migration count (harsh memories):\n%s\n",
      decay.ToString().c_str());

  // Fault injection: link failure forces rerouting or typed failure.
  qdm::qnet::QuantumNetwork ring = LineNetwork(4, 40);
  QDM_CHECK(
      ring.AddLink(0, 3, qdm::qnet::FiberLinkConfig{.length_km = 200}).ok());
  qdm::qnet::DistributedQuantumStore store(
      ring, qdm::qnet::DistributedQuantumStore::Options{}, &rng);
  QDM_CHECK(store.PutQuantum(0, "q", qdm::qnet::Qubit::Zero()).ok());
  QDM_CHECK(store.network().SetLinkUp(1, 2, false).ok());
  qdm::Status rerouted = store.MigrateQuantum("q", 3);
  std::printf(
      "fault injection: with link dc1-dc2 down, migration 0 -> 3 %s\n"
      "(rerouted over the 200 km backup edge)\n",
      rerouted.ok() ? "succeeded" : rerouted.ToString().c_str());
  std::printf(
      "\nShape check: replication leaves copies everywhere; migration\n"
      "never does (no-cloning); fidelity decays with every migration\n"
      "over imperfect entanglement; failures reroute when a path "
      "exists.\n");
  return 0;
}
