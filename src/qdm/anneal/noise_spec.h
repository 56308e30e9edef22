#ifndef QDM_ANNEAL_NOISE_SPEC_H_
#define QDM_ANNEAL_NOISE_SPEC_H_

#include <string>

#include "qdm/common/status.h"

namespace qdm {
namespace anneal {

/// The channel selected by a noise-model token (docs/noise.md grammar).
enum class NoiseChannel {
  kNone = 0,          // noiseless default (zero-means-default convention)
  kDepolarizing,      // depol@<p>
  kPauli,             // pauli@<px>,<py>,<pz>
  kAmplitudeDamping,  // damp@<gamma>
  kPhaseDamping,      // phase@<lambda>
  kReadout,           // readout@<p>
};

/// Backend-neutral noise-model description carried on SolverOptions.noise —
/// the anneal-layer mirror of sim::NoiseModel (the anneal layer does not
/// depend on sim/; the gate-based bridges in algo/ translate this into one
/// via algo::ToNoiseModel). Parsed from the model token of a
/// `noisy:<model>:<base>` registry name by ParseNoiseSpec.
struct NoiseSpec {
  NoiseChannel channel = NoiseChannel::kNone;
  /// Rate of the single-parameter channels (depol p / damp gamma /
  /// phase lambda / readout p).
  double p = 0.0;
  /// Per-Pauli error probabilities of the pauli channel (px + py + pz <= 1).
  double px = 0.0;
  double py = 0.0;
  double pz = 0.0;

  /// True when the spec perturbs nothing — channel unset or every rate zero
  /// (so `noisy:depol@0.0:<base>` collapses to bare `<base>` exactly).
  bool IsNoiseless() const;

  /// Canonical model token ("depol@0.01", "pauli@0.1,0,0.05", "none").
  std::string ToString() const;
};

/// Parses a noise-model token of the grammar
///
///   depol@<p> | pauli@<px>,<py>,<pz> | damp@<gamma> | phase@<lambda> |
///   readout@<p>
///
/// with every probability a decimal in [0, 1] (and px+py+pz <= 1). Malformed
/// tokens are InvalidArgument naming the offending token — never an abort —
/// mirroring the embedded:*/race:* error taxonomy.
Result<NoiseSpec> ParseNoiseSpec(const std::string& token);

}  // namespace anneal
}  // namespace qdm

#endif  // QDM_ANNEAL_NOISE_SPEC_H_
