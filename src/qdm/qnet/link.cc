#include "qdm/qnet/link.h"

#include <cmath>

#include "qdm/common/check.h"

namespace qdm {
namespace qnet {

FiberLink::FiberLink(FiberLinkConfig config) : config_(config) {
  QDM_CHECK_GT(config_.length_km, 0.0);
  QDM_CHECK_GT(config_.attempt_rate_hz, 0.0);
  QDM_CHECK(config_.initial_fidelity > 0.25 && config_.initial_fidelity <= 1.0);
}

double FiberLink::SuccessProbability() const {
  const double transmission =
      std::pow(10.0, -config_.attenuation_db_per_km * config_.length_km / 10.0);
  return config_.base_efficiency * transmission;
}

double FiberLink::AttemptDuration() const {
  const double heralding = config_.length_km / config_.speed_km_s;
  return std::max(1.0 / config_.attempt_rate_hz, heralding);
}

EprPair FiberLink::GenerateEntanglement(double now_s, Rng* rng) const {
  const double p = SuccessProbability();
  QDM_CHECK_GT(p, 0.0);
  // Geometric number of attempts.
  int64_t attempts = 1;
  while (!rng->Bernoulli(p)) ++attempts;
  EprPair pair;
  pair.fidelity = config_.initial_fidelity;
  pair.created_at_s = now_s + static_cast<double>(attempts) * AttemptDuration();
  return pair;
}

double FiberLink::ExpectedRateHz() const {
  return SuccessProbability() / AttemptDuration();
}

}  // namespace qnet
}  // namespace qdm
