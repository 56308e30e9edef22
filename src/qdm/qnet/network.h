#ifndef QDM_QNET_NETWORK_H_
#define QDM_QNET_NETWORK_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "qdm/common/status.h"
#include "qdm/qnet/link.h"
#include "qdm/qnet/repeater.h"

namespace qdm {
namespace qnet {

/// A quantum internet topology: named nodes connected by fiber links. Nodes
/// double as repeater stations for entanglement routed through them
/// (Fig. 1c generalized to arbitrary graphs). Links can be marked down to
/// study fault tolerance and rerouting (Sec IV-B(2)).
class QuantumNetwork {
 public:
  QuantumNetwork() = default;

  int AddNode(std::string name);
  int num_nodes() const { return static_cast<int>(node_names_.size()); }
  const std::string& node_name(int id) const;

  Status AddLink(int a, int b, FiberLinkConfig config);
  bool HasLink(int a, int b) const;

  /// Marks a link up/down (fault injection).
  Status SetLinkUp(int a, int b, bool up);

  /// Shortest operational path (by fiber length) between two nodes.
  Result<std::vector<int>> Route(int a, int b) const;

  /// Total fiber length of a route.
  double RouteLength(const std::vector<int>& route) const;

  /// Generates one end-to-end pair along the (possibly heterogeneous) route:
  /// per-hop generation, memory decay while waiting, swapping at each
  /// intermediate node. Advances *now_s.
  Result<EprPair> DistributeEntanglement(const std::vector<int>& route,
                                         double memory_t_s, double swap_success,
                                         double* now_s, Rng* rng) const;

 private:
  const FiberLinkConfig* LinkConfig(int a, int b) const;

  std::vector<std::string> node_names_;
  std::map<std::pair<int, int>, FiberLinkConfig> links_;
  std::set<std::pair<int, int>> down_;
};

}  // namespace qnet
}  // namespace qdm

#endif  // QDM_QNET_NETWORK_H_
