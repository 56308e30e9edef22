#include "qdm/anneal/sampler.h"

#include <algorithm>
#include <cstring>

#include "qdm/common/check.h"

namespace qdm {
namespace anneal {

void SampleSet::Add(Sample sample) {
  auto it = std::lower_bound(
      samples_.begin(), samples_.end(), sample,
      [](const Sample& a, const Sample& b) { return a.energy < b.energy; });
  samples_.insert(it, std::move(sample));
}

const Sample& SampleSet::best() const {
  QDM_CHECK(!samples_.empty()) << "best() on empty SampleSet";
  return samples_.front();
}

double SampleSet::SuccessRate(double target_energy, double tol) const {
  if (samples_.empty()) return 0.0;
  size_t hits = 0;
  for (const Sample& s : samples_) {
    if (s.energy <= target_energy + tol) ++hits;
  }
  return static_cast<double>(hits) / samples_.size();
}

namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

}  // namespace

bool BitIdentical(const SampleSet& a, const SampleSet& b) {
  if (a.size() != b.size() ||
      !SameBits(a.noise_fidelity(), b.noise_fidelity()) ||
      a.decision() != b.decision()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    const Sample& x = a.samples()[i];
    const Sample& y = b.samples()[i];
    if (x.assignment != y.assignment || !SameBits(x.energy, y.energy) ||
        !SameBits(x.chain_break_fraction, y.chain_break_fraction)) {
      return false;
    }
  }
  return true;
}

}  // namespace anneal
}  // namespace qdm
