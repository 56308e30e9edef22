#ifndef QDM_ALGO_NOISY_SAMPLING_H_
#define QDM_ALGO_NOISY_SAMPLING_H_

#include <vector>

#include "qdm/anneal/noise_spec.h"
#include "qdm/anneal/sampler.h"
#include "qdm/anneal/solver.h"
#include "qdm/circuit/circuit.h"
#include "qdm/common/rng.h"
#include "qdm/sim/noise.h"

namespace qdm {
namespace algo {

/// Largest qubit count solved with exact density-matrix channel evolution;
/// larger circuits fall back to per-shot trajectory sampling (the
/// trajectory-vs-density-matrix decision rule of docs/noise.md).
constexpr int kMaxDensityQubits = 6;

/// Translates the anneal-layer noise knob into the sim-layer model the
/// trajectory/density machinery consumes. A depol spec drives both the
/// one- and two-qubit depolarizing rates.
sim::NoiseModel ToNoiseModel(const anneal::NoiseSpec& spec);

/// Adds basis state z to `set` as a sample: variable i read from bit i of
/// z, energy diagonal[z]. The sampling tail of every gate-based backend.
void AddBasisSample(anneal::SampleSet* set, const std::vector<double>& diagonal,
                    int num_variables, uint64_t z);

/// Samples `num_reads` measurement outcomes of the (fully bound) circuit `c`
/// under `model`, scoring each outcome z against `diagonal` (the QUBO energy
/// of basis state z, variable i read from bit i). Small circuits
/// (<= kMaxDensityQubits) use exact density-matrix evolution; larger ones
/// run one trajectory per shot. The returned set carries noise_fidelity:
/// the ideal-state overlap of the evolved density matrix, or the mean
/// |<ideal|trajectory>|^2 on the trajectory path.
///
/// Determinism contract (docs/noise.md): with options.rng == nullptr, shot s
/// runs on its own Rng seeded `seed + s` (seed 0 mapping to the library
/// default first, mirroring ResolveSolverRng), so results are bit-identical
/// at every thread count and SolveBatchParallel instance i equals a
/// standalone solve at seed + i. A non-null options.rng draws one engine
/// value per shot as that shot's seed (sequential, order-dependent).
anneal::SampleSet SampleCircuitNoisy(const circuit::Circuit& c,
                                     const std::vector<double>& diagonal,
                                     const sim::NoiseModel& model,
                                     int num_reads,
                                     const anneal::SolverOptions& options);

/// Classical readout-corruption fallback for bridges without a gate-level
/// circuit (grover_min's adaptive Durr-Hoyer loop manipulates the
/// statevector directly, so per-gate error injection has nowhere to hook).
/// Each measured bit is corrupted once with the channel's computational-
/// basis error probabilities — depol flips with 2p/3 (X or Y), pauli with
/// px + py, damp decays a measured 1 with gamma, readout flips with p;
/// phase damping has no computational-basis effect. `survival` (if non-null)
/// receives the probability that this read came through unflipped — its
/// mean over reads is the grover-path noise_fidelity.
uint64_t CorruptBasisState(uint64_t z, int num_qubits,
                           const sim::NoiseModel& model, Rng* rng,
                           double* survival);

}  // namespace algo
}  // namespace qdm

#endif  // QDM_ALGO_NOISY_SAMPLING_H_
