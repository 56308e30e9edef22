#include "qdm/sim/density_matrix.h"

#include <cmath>
#include <utility>

#include "qdm/common/check.h"

namespace qdm {
namespace sim {

using linalg::Matrix;

namespace {

/// `num_qubits`, checked before the 4^n entries are allocated.
int CheckedNumQubits(int num_qubits) {
  QDM_CHECK(num_qubits > 0 && num_qubits <= 10)
      << "DensityMatrix is intended for small systems";
  return num_qubits;
}

/// The 2n-qubit vector would accept q in [n, 2n) and act on the column
/// register, so every entry point checks its qubits against n.
void CheckQubit(int q, int num_qubits) {
  QDM_CHECK(q >= 0 && q < num_qubits)
      << ": qubit " << q << " is out of range for a " << num_qubits
      << "-qubit density matrix";
}

void Conjugate(Statevector* sv) {
  for (Complex& a : sv->mutable_amplitudes()) a = std::conj(a);
}

}  // namespace

DensityMatrix::DensityMatrix(int num_qubits)
    : num_qubits_(CheckedNumQubits(num_qubits)), vec_(2 * num_qubits_) {}

DensityMatrix DensityMatrix::FromStatevector(const Statevector& sv) {
  DensityMatrix rho(sv.num_qubits());
  const size_t dim = sv.dimension();
  // The O(dim^2) outer product fans its columns out through the statevector
  // kernels' seam (columns are independent, so every thread count fills the
  // same bits); dim^2 is the work compared against the serial cutoff.
  Statevector::ForChunks(dim, dim * dim, [&](size_t col_begin, size_t col_end) {
    for (size_t j = col_begin; j < col_end; ++j) {
      for (size_t i = 0; i < dim; ++i) {
        rho.mutable_entry(i, j) = sv.amplitude(i) * std::conj(sv.amplitude(j));
      }
    }
  });
  return rho;
}

DensityMatrix DensityMatrix::WernerState(double fidelity) {
  QDM_CHECK(fidelity >= 0.0 && fidelity <= 1.0);
  // F |Phi+><Phi+| + w (I - |Phi+><Phi+|), where |Phi+><Phi+| is 0.5 on the
  // four corners of indices {0, 3}.
  const double w = (1.0 - fidelity) / 3.0;
  DensityMatrix rho(2);
  rho.mutable_entry(0, 0) = rho.mutable_entry(3, 3) = 0.5 * fidelity + 0.5 * w;
  rho.mutable_entry(0, 3) = rho.mutable_entry(3, 0) = 0.5 * fidelity - 0.5 * w;
  rho.mutable_entry(1, 1) = rho.mutable_entry(2, 2) = w;
  return rho;
}

Matrix DensityMatrix::matrix() const {
  Matrix rho(dimension(), dimension());
  for (size_t i = 0; i < dimension(); ++i) {
    for (size_t j = 0; j < dimension(); ++j) rho(i, j) = entry(i, j);
  }
  return rho;
}

void DensityMatrix::ApplyGate(const circuit::Gate& gate) {
  circuit::Gate column = gate;
  for (int& q : column.qubits) {
    CheckQubit(q, num_qubits_);
    q += num_qubits_;
  }
  // Row side U on Q first, then the column side conj(U) on Q + n as
  // conj(U conj(vec)): exact, and needs no knowledge of the gate's matrix.
  // The golden table in noisy_solver_test pins this order bit for bit.
  vec_.ApplyGate(gate);
  Conjugate(&vec_);
  vec_.ApplyGate(column);
  Conjugate(&vec_);
}

void DensityMatrix::ApplyKraus1Q(const std::vector<Matrix>& kraus, int q) {
  QDM_CHECK(!kraus.empty());
  CheckQubit(q, num_qubits_);
  // sum_k K rho K^dagger: each term is K on the row qubit q, then conj(K) on
  // the column qubit q + n, summed in list order from zero (the order the
  // golden table in noisy_solver_test pins bit for bit).
  std::vector<Complex> sum(vec_.dimension(), Complex(0, 0));
  for (const Matrix& k : kraus) {
    Statevector term = vec_;
    term.Apply1Q(k, q);
    const Matrix conj_k{{std::conj(k(0, 0)), std::conj(k(0, 1))},
                        {std::conj(k(1, 0)), std::conj(k(1, 1))}};
    term.Apply1Q(conj_k, q + num_qubits_);
    for (size_t z = 0; z < sum.size(); ++z) sum[z] += term.amplitude(z);
  }
  vec_.mutable_amplitudes() = std::move(sum);
}

void DensityMatrix::ApplyUnitary1Q(const Matrix& u, int q) {
  ApplyKraus1Q({u}, q);
}

double DensityMatrix::FidelityWithPure(const Statevector& psi) const {
  QDM_CHECK_EQ(psi.dimension(), dimension());
  // <psi|rho|psi>
  Complex f(0, 0);
  for (size_t i = 0; i < dimension(); ++i) {
    for (size_t j = 0; j < dimension(); ++j) {
      f += std::conj(psi.amplitude(i)) * entry(i, j) * psi.amplitude(j);
    }
  }
  return f.real();
}

DensityMatrix DensityMatrix::PartialTrace(const std::vector<int>& keep) const {
  QDM_CHECK(!keep.empty());
  for (int q : keep) CheckQubit(q, num_qubits_);
  for (size_t i = 0; i + 1 < keep.size(); ++i) {
    QDM_CHECK_LT(keep[i], keep[i + 1]);
  }
  const int k = static_cast<int>(keep.size());
  const size_t out_dim = size_t{1} << k;
  DensityMatrix out(k);

  std::vector<int> traced;
  for (int q = 0; q < num_qubits_; ++q) {
    bool kept = false;
    for (int kq : keep) kept |= (kq == q);
    if (!kept) traced.push_back(q);
  }
  const size_t traced_dim = size_t{1} << traced.size();

  auto compose_index = [&](size_t keep_bits, size_t traced_bits) {
    uint64_t z = 0;
    for (int i = 0; i < k; ++i) {
      if ((keep_bits >> i) & 1) z |= uint64_t{1} << keep[i];
    }
    for (size_t i = 0; i < traced.size(); ++i) {
      if ((traced_bits >> i) & 1) z |= uint64_t{1} << traced[i];
    }
    return z;
  };

  for (size_t a = 0; a < out_dim; ++a) {
    for (size_t b = 0; b < out_dim; ++b) {
      Complex sum(0, 0);
      for (size_t t = 0; t < traced_dim; ++t) {
        sum += entry(compose_index(a, t), compose_index(b, t));
      }
      out.mutable_entry(a, b) = sum;
    }
  }
  return out;
}

double DensityMatrix::ProbabilityOfOne(int q) const {
  CheckQubit(q, num_qubits_);
  const uint64_t bit = uint64_t{1} << q;
  double p = 0.0;
  for (size_t z = 0; z < dimension(); ++z) {
    if (z & bit) p += entry(z, z).real();
  }
  return p;
}

}  // namespace sim
}  // namespace qdm
