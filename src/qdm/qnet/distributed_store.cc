#include "qdm/qnet/distributed_store.h"

#include <algorithm>

#include "qdm/common/check.h"
#include "qdm/common/strings.h"

namespace qdm {
namespace qnet {

DistributedQuantumStore::DistributedQuantumStore(QuantumNetwork network,
                                                 Options options, Rng* rng)
    : network_(std::move(network)), options_(options), rng_(rng) {
  QDM_CHECK(rng != nullptr);
}

Status DistributedQuantumStore::PutClassical(int node, const std::string& key,
                                             std::string payload) {
  if (node < 0 || node >= network_.num_nodes()) {
    return Status::InvalidArgument("bad node id");
  }
  if (classical_.count(key) || quantum_.count(key)) {
    return Status::AlreadyExists("key already bound: " + key);
  }
  ClassicalObject object;
  object.payload = std::move(payload);
  object.locations.insert(node);
  classical_.emplace(key, std::move(object));
  return Status::Ok();
}

Status DistributedQuantumStore::ReplicateClassical(const std::string& key,
                                                   int target_node) {
  auto it = classical_.find(key);
  if (it == classical_.end()) {
    if (quantum_.count(key)) {
      return ReplicateQuantum(key, target_node);  // Typed no-cloning error.
    }
    return Status::NotFound("no classical object: " + key);
  }
  if (it->second.locations.count(target_node)) return Status::Ok();

  // Pick the nearest replica as the source.
  Result<std::vector<int>> best_route =
      Status::NotFound("no operational path to any replica");
  double best_length = 1e300;
  for (int source : it->second.locations) {
    Result<std::vector<int>> route = network_.Route(source, target_node);
    if (!route.ok()) continue;
    const double length = network_.RouteLength(*route);
    if (length < best_length) {
      best_length = length;
      best_route = route;
    }
  }
  QDM_RETURN_IF_ERROR(best_route.status());

  // Establish a one-time-pad key via BB84 across the route, then ship the
  // encrypted payload classically.
  const double needed_bits = 8.0 * it->second.payload.size();
  Bb84Config qkd;
  qkd.channel_error = std::min(0.5, options_.qkd_error_per_km * best_length);
  // Sifting keeps ~1/2 and sampling costs more: over-provision raw bits.
  qkd.num_raw_bits = static_cast<int>(needed_bits * 4) + 512;
  Bb84Result session = RunBb84(qkd, rng_);
  ++stats_.qkd_sessions;
  if (session.aborted || session.secure_key_bits < needed_bits) {
    return Status::FailedPrecondition(
        StrFormat("QKD could not establish %d secure bits (got %.0f%s)",
                  static_cast<int>(needed_bits), session.secure_key_bits,
                  session.aborted ? ", aborted" : ""));
  }
  stats_.qkd_secure_bits += session.secure_key_bits;
  ++stats_.replications;
  it->second.locations.insert(target_node);
  return Status::Ok();
}

Result<std::set<int>> DistributedQuantumStore::ClassicalLocations(
    const std::string& key) const {
  auto it = classical_.find(key);
  if (it == classical_.end()) {
    return Status::NotFound("no classical object: " + key);
  }
  return it->second.locations;
}

Result<std::string> DistributedQuantumStore::ReadClassical(
    const std::string& key, int node) const {
  auto it = classical_.find(key);
  if (it == classical_.end()) {
    return Status::NotFound("no classical object: " + key);
  }
  if (!it->second.locations.count(node)) {
    return Status::FailedPrecondition(
        StrFormat("node %d holds no replica of %s", node, key.c_str()));
  }
  return it->second.payload;
}

Status DistributedQuantumStore::PutQuantum(int node, const std::string& key,
                                           Qubit qubit) {
  if (node < 0 || node >= network_.num_nodes()) {
    return Status::InvalidArgument("bad node id");
  }
  if (classical_.count(key) || quantum_.count(key)) {
    return Status::AlreadyExists("key already bound: " + key);
  }
  if (qubit.consumed()) {
    return Status::InvalidArgument("cannot store a consumed qubit");
  }
  QuantumObject object{std::move(qubit), Complex(0, 0), Complex(0, 0), node};
  object.reference_alpha = object.qubit.alpha();
  object.reference_beta = object.qubit.beta();
  quantum_.emplace(key, std::move(object));
  return Status::Ok();
}

Status DistributedQuantumStore::ReplicateQuantum(const std::string& key,
                                                 int /*target_node*/) {
  if (!quantum_.count(key)) {
    return Status::NotFound("no quantum object: " + key);
  }
  return Status::FailedPrecondition(
      "no-cloning theorem: quantum data cannot be replicated; "
      "use MigrateQuantum to move it");
}

Status DistributedQuantumStore::MigrateQuantum(const std::string& key,
                                               int target_node) {
  auto it = quantum_.find(key);
  if (it == quantum_.end()) {
    return Status::NotFound("no quantum object: " + key);
  }
  if (it->second.location == target_node) return Status::Ok();

  QDM_ASSIGN_OR_RETURN(std::vector<int> route,
                       network_.Route(it->second.location, target_node));
  QDM_ASSIGN_OR_RETURN(EprPair pair, network_.DistributeEntanglement(
                                         route, options_.memory_t_s,
                                         options_.swap_success, &now_s_, rng_));
  ++stats_.epr_pairs_consumed;

  TeleportResult teleported = Teleport(std::move(it->second.qubit), pair,
                                       network_.RouteLength(route), rng_);
  ++stats_.teleports;
  now_s_ += teleported.classical_latency_s;

  it->second.qubit = std::move(teleported.received);
  it->second.location = target_node;
  return Status::Ok();
}

Result<int> DistributedQuantumStore::QuantumLocation(
    const std::string& key) const {
  auto it = quantum_.find(key);
  if (it == quantum_.end()) {
    return Status::NotFound("no quantum object: " + key);
  }
  return it->second.location;
}

Result<double> DistributedQuantumStore::QuantumFidelity(
    const std::string& key) const {
  auto it = quantum_.find(key);
  if (it == quantum_.end()) {
    return Status::NotFound("no quantum object: " + key);
  }
  return it->second.qubit.FidelityWith(it->second.reference_alpha,
                                       it->second.reference_beta);
}

}  // namespace qnet
}  // namespace qdm
