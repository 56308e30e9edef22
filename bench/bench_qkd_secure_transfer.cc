// E12 -- Paper Sec IV-B: "Quantum nonlocality serves as the theoretical
// foundation of protocols for secure communication and key distribution."
// Regenerates the BB84 security table: key rate vs channel noise, the abort
// cliff at the 11% QBER threshold, and eavesdropper detection; then runs a
// QKD-secured replication of a relation across the simulated internet.

#include <cstdio>

#include "qdm/common/rng.h"
#include "qdm/common/strings.h"
#include "qdm/common/table_printer.h"
#include "qdm/qnet/distributed_store.h"
#include "qdm/qnet/e91.h"
#include "qdm/qnet/qkd.h"

int main() {
  qdm::Rng rng(2024);

  qdm::TablePrinter table({"channel error", "eve", "QBER", "sifted",
                           "secure bits", "secret fraction", "verdict"});
  auto run = [&](double error, bool eve) {
    qdm::qnet::Bb84Config config;
    config.num_raw_bits = 16384;
    config.channel_error = error;
    config.eavesdropper = eve;
    qdm::qnet::Bb84Result r = qdm::qnet::RunBb84(config, &rng);
    table.AddRow(
        {qdm::StrFormat("%.3f", error), eve ? "yes" : "no",
         qdm::StrFormat("%.3f", r.estimated_qber),
         qdm::StrFormat("%d", r.sifted_bits),
         qdm::StrFormat("%.0f", r.secure_key_bits),
         qdm::StrFormat(
             "%.3f", r.sifted_bits ? r.secure_key_bits / r.sifted_bits : 0.0),
         r.aborted ? "ABORT" : "key ok"});
  };
  for (double error : {0.0, 0.02, 0.05, 0.08, 0.12}) run(error, false);
  run(0.0, true);
  run(0.02, true);
  std::printf("E12: BB84 key distribution under noise and eavesdropping\n%s\n",
              table.ToString().c_str());

  // Secure replication across a 3-node internet (Fig. 1c layout).
  qdm::qnet::QuantumNetwork network;
  int a = network.AddNode("dc-europe");
  int r = network.AddNode("repeater");
  int b = network.AddNode("dc-america");
  qdm::qnet::FiberLinkConfig fiber;
  fiber.length_km = 80;
  QDM_CHECK(network.AddLink(a, r, fiber).ok());
  QDM_CHECK(network.AddLink(r, b, fiber).ok());
  qdm::qnet::DistributedQuantumStore store(
      network, qdm::qnet::DistributedQuantumStore::Options{}, &rng);

  const std::string relation = "k,v\n1,alpha\n2,beta\n3,gamma\n";
  QDM_CHECK(store.PutClassical(a, "dim_table", relation).ok());
  qdm::Status status = store.ReplicateClassical("dim_table", b);
  std::printf(
      "QKD-secured replication of %zu payload bytes across 160 km: %s\n",
      relation.size(), status.ToString().c_str());
  std::printf("sessions: %d, secure bits: %.0f (need %zu)\n",
              store.stats().qkd_sessions, store.stats().qkd_secure_bits,
              relation.size() * 8);
  // E91: security certified by the CHSH statistic itself (Sec IV-A theory
  // powering Sec IV-B practice).
  qdm::TablePrinter e91_table({"pair fidelity", "eve", "S (measured)",
                               "S (analytic)", "QBER", "verdict"});
  auto run_e91 = [&](double fidelity, bool eve) {
    qdm::qnet::E91Config config;
    config.num_pairs = 30000;
    config.pair_fidelity = fidelity;
    config.eavesdropper = eve;
    qdm::qnet::E91Result r = qdm::qnet::RunE91(config, &rng);
    e91_table.AddRow(
        {qdm::StrFormat("%.2f", fidelity), eve ? "yes" : "no",
         qdm::StrFormat("%.3f", r.s_value),
         eve ? "1.414"
             : qdm::StrFormat("%.3f", qdm::qnet::ExpectedE91S(fidelity)),
         qdm::StrFormat("%.3f", r.qber),
         r.aborted ? "ABORT (S <= 2)" : "key ok"});
  };
  for (double fidelity : {1.0, 0.9, 0.8, 0.7}) run_e91(fidelity, false);
  run_e91(1.0, true);
  std::printf("E91 entanglement-based QKD (CHSH-certified security):\n%s\n",
              e91_table.ToString().c_str());

  std::printf(
      "\nShape check: secret fraction decays with QBER and hits the\n"
      "abort cliff near 11%%; intercept-resend forces ~25%% QBER and\n"
      "always aborts. In E91 the CHSH value S is the security meter:\n"
      "S tracks 2*sqrt(2)*w and crosses the classical bound 2 near\n"
      "F ~ 0.78; an intercept-resend attack pins S at sqrt(2).\n");
  return 0;
}
