#include "qdm/circuit/gates.h"

#include <cmath>

#include "qdm/common/check.h"

namespace qdm {
namespace circuit {

namespace {
constexpr Complex kI0(0.0, 0.0);
constexpr Complex kR1(1.0, 0.0);
const double kInvSqrt2 = 1.0 / std::sqrt(2.0);
}  // namespace

int GateArity(GateKind kind) {
  switch (kind) {
    case GateKind::kI:
    case GateKind::kX:
    case GateKind::kY:
    case GateKind::kZ:
    case GateKind::kH:
    case GateKind::kS:
    case GateKind::kSdg:
    case GateKind::kT:
    case GateKind::kTdg:
    case GateKind::kRX:
    case GateKind::kRY:
    case GateKind::kRZ:
    case GateKind::kPhase:
    case GateKind::kU3:
      return 1;
    case GateKind::kCX:
    case GateKind::kCY:
    case GateKind::kCZ:
    case GateKind::kSwap:
    case GateKind::kCRZ:
    case GateKind::kCPhase:
    case GateKind::kRZZ:
      return 2;
    case GateKind::kCCX:
    case GateKind::kCSwap:
      return 3;
  }
  return 0;
}

int GateParamCount(GateKind kind) {
  switch (kind) {
    case GateKind::kRX:
    case GateKind::kRY:
    case GateKind::kRZ:
    case GateKind::kPhase:
    case GateKind::kCRZ:
    case GateKind::kCPhase:
    case GateKind::kRZZ:
      return 1;
    case GateKind::kU3:
      return 3;
    default:
      return 0;
  }
}

const char* GateName(GateKind kind) {
  switch (kind) {
    case GateKind::kI:
      return "id";
    case GateKind::kX:
      return "x";
    case GateKind::kY:
      return "y";
    case GateKind::kZ:
      return "z";
    case GateKind::kH:
      return "h";
    case GateKind::kS:
      return "s";
    case GateKind::kSdg:
      return "sdg";
    case GateKind::kT:
      return "t";
    case GateKind::kTdg:
      return "tdg";
    case GateKind::kRX:
      return "rx";
    case GateKind::kRY:
      return "ry";
    case GateKind::kRZ:
      return "rz";
    case GateKind::kPhase:
      return "p";
    case GateKind::kU3:
      return "u3";
    case GateKind::kCX:
      return "cx";
    case GateKind::kCY:
      return "cy";
    case GateKind::kCZ:
      return "cz";
    case GateKind::kSwap:
      return "swap";
    case GateKind::kCRZ:
      return "crz";
    case GateKind::kCPhase:
      return "cp";
    case GateKind::kRZZ:
      return "rzz";
    case GateKind::kCCX:
      return "ccx";
    case GateKind::kCSwap:
      return "cswap";
  }
  return "?";
}

linalg::Matrix SingleQubitMatrix(GateKind kind,
                                 const std::vector<double>& params) {
  QDM_CHECK_EQ(static_cast<size_t>(GateParamCount(kind)), params.size())
      << "wrong parameter count for gate " << GateName(kind);
  using linalg::Matrix;
  switch (kind) {
    case GateKind::kI:
      return Matrix{{kR1, kI0}, {kI0, kR1}};
    case GateKind::kX:
      return Matrix{{kI0, kR1}, {kR1, kI0}};
    case GateKind::kY:
      return Matrix{{kI0, Complex(0, -1)}, {Complex(0, 1), kI0}};
    case GateKind::kZ:
      return Matrix{{kR1, kI0}, {kI0, Complex(-1, 0)}};
    case GateKind::kH:
      return Matrix{{Complex(kInvSqrt2, 0), Complex(kInvSqrt2, 0)},
                    {Complex(kInvSqrt2, 0), Complex(-kInvSqrt2, 0)}};
    case GateKind::kS:
      return Matrix{{kR1, kI0}, {kI0, Complex(0, 1)}};
    case GateKind::kSdg:
      return Matrix{{kR1, kI0}, {kI0, Complex(0, -1)}};
    case GateKind::kT:
      return Matrix{{kR1, kI0}, {kI0, std::polar(1.0, M_PI / 4)}};
    case GateKind::kTdg:
      return Matrix{{kR1, kI0}, {kI0, std::polar(1.0, -M_PI / 4)}};
    case GateKind::kRX: {
      double t = params[0] / 2;
      return Matrix{{Complex(std::cos(t), 0), Complex(0, -std::sin(t))},
                    {Complex(0, -std::sin(t)), Complex(std::cos(t), 0)}};
    }
    case GateKind::kRY: {
      double t = params[0] / 2;
      return Matrix{{Complex(std::cos(t), 0), Complex(-std::sin(t), 0)},
                    {Complex(std::sin(t), 0), Complex(std::cos(t), 0)}};
    }
    case GateKind::kRZ: {
      double t = params[0] / 2;
      return Matrix{{std::polar(1.0, -t), kI0}, {kI0, std::polar(1.0, t)}};
    }
    case GateKind::kPhase:
      return Matrix{{kR1, kI0}, {kI0, std::polar(1.0, params[0])}};
    case GateKind::kU3: {
      double theta = params[0], phi = params[1], lambda = params[2];
      double c = std::cos(theta / 2), s = std::sin(theta / 2);
      // r·e^{it} spelled out: c and s can be negative, which std::polar
      // forbids. This is libstdc++'s polar body, so the entries are the
      // same bits.
      const auto polar = [](double r, double t) {
        return Complex(r * std::cos(t), r * std::sin(t));
      };
      return Matrix{{Complex(c, 0), polar(-s, lambda)},
                    {polar(s, phi), polar(c, phi + lambda)}};
    }
    default:
      QDM_CHECK(false) << GateName(kind) << " is not a single-qubit gate";
  }
  return linalg::Matrix();
}

}  // namespace circuit
}  // namespace qdm
