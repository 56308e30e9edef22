#include "qdm/anneal/zephyr.h"

#include <algorithm>

#include "qdm/common/check.h"
#include "qdm/common/strings.h"

namespace qdm {
namespace anneal {

ZephyrGraph::ZephyrGraph(int m, int t) : m_(m), t_(t) {
  QDM_CHECK_GE(m, 1);
  QDM_CHECK_GE(t, 1);
}

int ZephyrGraph::Qubit(int u, int w, int k, int j, int z) const {
  QDM_CHECK(u >= 0 && u < 2 && w >= 0 && w <= 2 * m_ && k >= 0 && k < t_ &&
            j >= 0 && j < 2 && z >= 0 && z < m_);
  return (((u * (2 * m_ + 1) + w) * t_ + k) * 2 + j) * m_ + z;
}

ZephyrGraph::Coord ZephyrGraph::Decode(int id) const {
  QDM_CHECK(id >= 0 && id < num_qubits());
  const int z = id % m_;
  int rest = id / m_;
  const int j = rest % 2;
  rest /= 2;
  const int k = rest % t_;
  rest /= t_;
  return Coord{rest / (2 * m_ + 1), rest % (2 * m_ + 1), k, j, z};
}

std::string ZephyrGraph::name() const {
  return StrFormat("zephyr:%dx%d", m_, t_);
}

bool ZephyrGraph::HasEdge(int a, int b) const {
  if (a == b) return false;
  const Coord qa = Decode(a);
  const Coord qb = Decode(b);
  if (qa.u == qb.u) {
    if (qa.w != qb.w || qa.k != qb.k) return false;
    // External: same half-offset, consecutive positions.
    if (qa.j == qb.j) return qa.z - qb.z == 1 || qb.z - qa.z == 1;
    // Odd: opposite half-offsets whose two-cell spans overlap by one cell.
    const Coord& j0 = qa.j == 0 ? qa : qb;
    const Coord& j1 = qa.j == 0 ? qb : qa;
    return j1.z == j0.z || j1.z == j0.z - 1;
  }
  // Internal: the horizontal qubit's row lies in the vertical qubit's span
  // and vice versa.
  const Coord& v = qa.u == 0 ? qa : qb;
  const Coord& h = qa.u == 0 ? qb : qa;
  const int v_lo = 2 * v.z + v.j;
  const int h_lo = 2 * h.z + h.j;
  return (h.w == v_lo || h.w == v_lo + 1) && (v.w == h_lo || v.w == h_lo + 1);
}

std::vector<std::pair<int, int>> ZephyrGraph::Edges() const {
  std::vector<std::pair<int, int>> edges;
  for (int u = 0; u < 2; ++u) {
    for (int w = 0; w <= 2 * m_; ++w) {
      for (int k = 0; k < t_; ++k) {
        for (int z = 0; z < m_; ++z) {
          for (int j = 0; j < 2; ++j) {
            const int q = Qubit(u, w, k, j, z);
            if (z + 1 < m_) edges.emplace_back(q, Qubit(u, w, k, j, z + 1));
          }
          // Odd couplers, anchored at the j = 0 segment: (0, z) overlaps
          // (1, z - 1) and (1, z).
          const int q0 = Qubit(u, w, k, 0, z);
          if (z > 0) {
            const int q1 = Qubit(u, w, k, 1, z - 1);
            edges.emplace_back(std::min(q0, q1), std::max(q0, q1));
          }
          edges.emplace_back(std::min(q0, Qubit(u, w, k, 1, z)),
                             std::max(q0, Qubit(u, w, k, 1, z)));
        }
      }
    }
  }
  // Internal couplers: each vertical segment spans two rows; in each row it
  // crosses the (at most two) horizontal segments per track that cover its
  // column.
  for (int w = 0; w <= 2 * m_; ++w) {
    for (int k = 0; k < t_; ++k) {
      for (int j = 0; j < 2; ++j) {
        for (int z = 0; z < m_; ++z) {
          const int v = Qubit(0, w, k, j, z);
          for (int row = 2 * z + j; row <= 2 * z + j + 1; ++row) {
            for (int hk = 0; hk < t_; ++hk) {
              for (int start = w - 1; start <= w; ++start) {
                if (start < 0) continue;
                const int hj = start & 1;
                const int hz = start >> 1;
                if (hz >= m_) continue;
                const int h = Qubit(1, row, hk, hj, hz);
                edges.emplace_back(std::min(v, h), std::max(v, h));
              }
            }
          }
        }
      }
    }
  }
  return edges;
}

Result<std::vector<std::vector<int>>> ZephyrGraph::CliqueChains(
    int num_logical) const {
  if (num_logical > CliqueCapacity()) {
    return Status::ResourceExhausted(StrFormat(
        "clique embedding of K_%d exceeds the %d-variable capacity of %s",
        num_logical, CliqueCapacity(), name().c_str()));
  }
  // TRIAD over the Chimera C(2m, 2m, t) copy: cell (r, c) takes the vertical
  // segments covering rows {r, r+1} in column c and the horizontal segments
  // covering columns {c, c+1} in row r; consecutive cells along a line are
  // joined by odd couplers (overlapping spans).
  return TriadCliqueChains(
      num_logical, t_,
      [this](int r, int c, int i) { return Qubit(0, c, i, r & 1, r >> 1); },
      [this](int r, int c, int i) { return Qubit(1, r, i, c & 1, c >> 1); });
}

}  // namespace anneal
}  // namespace qdm
