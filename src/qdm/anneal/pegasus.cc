#include "qdm/anneal/pegasus.h"

#include <algorithm>

#include "qdm/common/check.h"
#include "qdm/common/strings.h"

namespace qdm {
namespace anneal {

PegasusGraph::PegasusGraph(int m) : m_(m) {
  QDM_CHECK_GE(m, 2);
}

int PegasusGraph::VerticalShift(int k) {
  static constexpr int kShift[3] = {2, 10, 6};
  return kShift[k / 4];
}

int PegasusGraph::HorizontalShift(int k) {
  static constexpr int kShift[3] = {6, 2, 10};
  return kShift[k / 4];
}

int PegasusGraph::Qubit(int u, int w, int k, int z) const {
  QDM_CHECK(u >= 0 && u < 2 && w >= 0 && w < m_ && k >= 0 && k < 12 && z >= 0 &&
            z < m_ - 1);
  return ((u * m_ + w) * 12 + k) * (m_ - 1) + z;
}

PegasusGraph::Coord PegasusGraph::Decode(int id) const {
  QDM_CHECK(id >= 0 && id < num_qubits());
  const int z = id % (m_ - 1);
  int rest = id / (m_ - 1);
  const int k = rest % 12;
  rest /= 12;
  return Coord{rest / m_, rest % m_, k, z};
}

std::string PegasusGraph::name() const {
  return StrFormat("pegasus:%d", m_);
}

bool PegasusGraph::HasEdge(int a, int b) const {
  if (a == b) return false;
  const Coord qa = Decode(a);
  const Coord qb = Decode(b);
  if (qa.u == qb.u) {
    // External: collinear segments at consecutive z.
    if (qa.w == qb.w && qa.k == qb.k &&
        (qa.z - qb.z == 1 || qb.z - qa.z == 1)) {
      return true;
    }
    // Odd: paired tracks (2j, 2j+1) at the same position.
    return qa.w == qb.w && qa.z == qb.z && (qa.k ^ 1) == qb.k;
  }
  // Internal: opposite orientations whose segments cross. Let v be the
  // vertical one at column x spanning 12 rows, h the horizontal one at row y
  // spanning 12 columns; they couple iff each lies in the other's span.
  const Coord& v = qa.u == 0 ? qa : qb;
  const Coord& h = qa.u == 0 ? qb : qa;
  const int x = 12 * v.w + v.k;
  const int y = 12 * h.w + h.k;
  const int v_lo = 12 * v.z + VerticalShift(v.k);
  const int h_lo = 12 * h.z + HorizontalShift(h.k);
  return y >= v_lo && y < v_lo + 12 && x >= h_lo && x < h_lo + 12;
}

std::vector<std::pair<int, int>> PegasusGraph::Edges() const {
  std::vector<std::pair<int, int>> edges;
  for (int u = 0; u < 2; ++u) {
    for (int w = 0; w < m_; ++w) {
      for (int k = 0; k < 12; ++k) {
        for (int z = 0; z < m_ - 1; ++z) {
          const int q = Qubit(u, w, k, z);
          if (z + 1 < m_ - 1) edges.emplace_back(q, Qubit(u, w, k, z + 1));
          if ((k & 1) == 0) edges.emplace_back(q, Qubit(u, w, k + 1, z));
        }
      }
    }
  }
  // Internal couplers: walk every vertical segment's 12-row span; each row is
  // a horizontal track, and at most one horizontal segment of that track
  // covers the vertical segment's column.
  for (int w = 0; w < m_; ++w) {
    for (int k = 0; k < 12; ++k) {
      const int x = 12 * w + k;
      for (int z = 0; z < m_ - 1; ++z) {
        const int v = Qubit(0, w, k, z);
        const int v_lo = 12 * z + VerticalShift(k);
        for (int y = v_lo; y < v_lo + 12; ++y) {
          const int hw = y / 12;
          const int hk = y % 12;
          if (hw >= m_) continue;
          const int rel = x - HorizontalShift(hk);
          if (rel < 0) continue;
          const int hz = rel / 12;
          if (hz >= m_ - 1) continue;
          const int h = Qubit(1, hw, hk, hz);
          edges.emplace_back(std::min(v, h), std::max(v, h));
        }
      }
    }
  }
  return edges;
}

Result<std::vector<std::vector<int>>> PegasusGraph::CliqueChains(
    int num_logical) const {
  if (num_logical > CliqueCapacity()) {
    return Status::ResourceExhausted(StrFormat(
        "clique embedding of K_%d exceeds the %d-variable capacity of %s",
        num_logical, CliqueCapacity(), name().c_str()));
  }
  // TRIAD over the middle-track-group Chimera C(m-1, m-1, 4) copy: the
  // vertical tracks k in [4, 8) (shift 10) cross the horizontal tracks
  // k in [4, 8) (shift 2) in complete K_{4,4} cells, and consecutive cells
  // along a row/column are joined by external couplers.
  return TriadCliqueChains(
      num_logical, 4,
      [this](int r, int c, int i) { return Qubit(0, c, 4 + i, r); },
      [this](int r, int c, int i) { return Qubit(1, r + 1, 4 + i, c); });
}

}  // namespace anneal
}  // namespace qdm
