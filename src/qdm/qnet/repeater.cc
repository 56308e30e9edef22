#include "qdm/qnet/repeater.h"

#include <algorithm>
#include <vector>

#include "qdm/common/check.h"

namespace qdm {
namespace qnet {

namespace {

/// Generates one end-to-end pair along the chain; returns its fidelity and
/// advances *now_s. Returns false if the attempt budget (time limit) burst.
bool DeliverOnePair(const ChainConfig& config, double max_seconds,
                    double* now_s, double* fidelity, Rng* rng) {
  const int segments = config.num_repeaters + 1;
  FiberLinkConfig seg_config = config.link;
  seg_config.length_km = config.total_distance_km / segments;
  const FiberLink link(seg_config);

  while (*now_s < max_seconds) {
    // Generate pairs on all segments in parallel; the chain is ready at the
    // time the slowest segment finishes.
    std::vector<EprPair> pairs(segments);
    double ready_at = *now_s;
    for (int s = 0; s < segments; ++s) {
      pairs[s] = link.GenerateEntanglement(*now_s, rng);
      if (config.purify_segments) {
        // One BBPSSW round with a second pair from the same segment.
        EprPair sacrifice = link.GenerateEntanglement(*now_s, rng);
        sacrifice.created_at_s =
            std::max(sacrifice.created_at_s, pairs[s].created_at_s);
        if (AttemptPurification(&pairs[s], sacrifice, rng)) {
          pairs[s].created_at_s = sacrifice.created_at_s;
        } else {
          // Purification failure destroys the pair: regenerate plainly.
          pairs[s] = link.GenerateEntanglement(sacrifice.created_at_s, rng);
        }
      }
      ready_at = std::max(ready_at, pairs[s].created_at_s);
    }

    // Swap left-to-right at each repeater; pairs that waited decay.
    double f = pairs[0].fidelity;
    f = DecayedFidelity(f, ready_at - pairs[0].created_at_s, config.memory_t_s);
    bool all_swaps_ok = true;
    for (int r = 1; r < segments; ++r) {
      double fr =
          DecayedFidelity(pairs[r].fidelity, ready_at - pairs[r].created_at_s,
                          config.memory_t_s);
      if (!rng->Bernoulli(config.swap_success)) {
        all_swaps_ok = false;
        break;
      }
      f = SwapFidelity(f, fr);
    }
    *now_s = ready_at;
    if (all_swaps_ok) {
      *fidelity = f;
      return true;
    }
    // Swap failure: all resources lost; retry from scratch.
  }
  return false;
}

}  // namespace

DistributionStats SimulateChain(const ChainConfig& config, int target_pairs,
                                double max_seconds, Rng* rng) {
  QDM_CHECK_GE(config.num_repeaters, 0);
  QDM_CHECK_GT(target_pairs, 0);
  DistributionStats stats;
  double now = 0.0;
  double fidelity_sum = 0.0;
  while (stats.pairs_delivered < target_pairs && now < max_seconds) {
    double f = 0.0;
    if (!DeliverOnePair(config, max_seconds, &now, &f, rng)) break;
    ++stats.pairs_delivered;
    fidelity_sum += f;
  }
  stats.simulated_seconds = now;
  if (stats.pairs_delivered > 0) {
    stats.mean_fidelity = fidelity_sum / stats.pairs_delivered;
    stats.rate_hz = stats.pairs_delivered / std::max(now, 1e-12);
  }
  return stats;
}

DistributionStats SimulateDirect(const ChainConfig& config, int target_pairs,
                                 double max_seconds, Rng* rng) {
  ChainConfig direct = config;
  direct.num_repeaters = 0;
  return SimulateChain(direct, target_pairs, max_seconds, rng);
}

}  // namespace qnet
}  // namespace qdm
