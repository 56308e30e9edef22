#ifndef QDM_CIRCUIT_MULTI_CONTROLLED_H_
#define QDM_CIRCUIT_MULTI_CONTROLLED_H_

#include <vector>

#include "qdm/circuit/circuit.h"

namespace qdm {
namespace circuit {

/// Appends a multi-controlled X (k controls) to `c` using the standard
/// V-chain Toffoli ladder. For k <= 2 no ancillas are needed; for k >= 3 the
/// caller must provide k - 2 clean (|0>) ancilla qubits, which are returned
/// to |0> (the ladder is uncomputed).
void AppendMultiControlledX(Circuit* c, const std::vector<int>& controls,
                            int target, const std::vector<int>& ancillas);

/// Multi-controlled Z: phase-flips exactly the basis state where all controls
/// and the target are |1>. Implemented as H(target) MCX H(target).
void AppendMultiControlledZ(Circuit* c, const std::vector<int>& controls,
                            int target, const std::vector<int>& ancillas);

/// Number of clean ancillas AppendMultiControlledX/Z require for `k` controls.
inline int MultiControlledAncillaCount(int k) {
  return k <= 2 ? 0 : k - 2;
}

}  // namespace circuit
}  // namespace qdm

#endif  // QDM_CIRCUIT_MULTI_CONTROLLED_H_
