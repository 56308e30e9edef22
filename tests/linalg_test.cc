#include <gtest/gtest.h>

#include "qdm/circuit/gates.h"
#include "qdm/linalg/matrix.h"

namespace qdm {
namespace linalg {
namespace {

using circuit::GateKind;
using circuit::SingleQubitMatrix;

TEST(MatrixTest, IdentityAndIndexing) {
  Matrix i = Matrix::Identity(3);
  EXPECT_EQ(i.rows(), 3u);
  EXPECT_EQ(i(0, 0), Complex(1, 0));
  EXPECT_EQ(i(0, 1), Complex(0, 0));
}

TEST(MatrixTest, InitializerList) {
  Matrix m{{Complex(1, 0), Complex(2, 0)}, {Complex(3, 0), Complex(4, 0)}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m(1, 0), Complex(3, 0));
}

TEST(MatrixTest, MultiplyMatchesHandComputation) {
  Matrix a{{Complex(1, 0), Complex(2, 0)}, {Complex(3, 0), Complex(4, 0)}};
  Matrix b{{Complex(0, 0), Complex(1, 0)}, {Complex(1, 0), Complex(0, 0)}};
  Matrix c = a * b;
  EXPECT_EQ(c(0, 0), Complex(2, 0));
  EXPECT_EQ(c(0, 1), Complex(1, 0));
  EXPECT_EQ(c(1, 0), Complex(4, 0));
  EXPECT_EQ(c(1, 1), Complex(3, 0));
}

TEST(MatrixTest, AdjointConjugatesAndTransposes) {
  Matrix m{{Complex(1, 2), Complex(0, 1)}, {Complex(3, 0), Complex(0, -4)}};
  Matrix a = m.Adjoint();
  EXPECT_EQ(a(0, 0), Complex(1, -2));
  EXPECT_EQ(a(0, 1), Complex(3, 0));
  EXPECT_EQ(a(1, 0), Complex(0, -1));
  EXPECT_EQ(a(1, 1), Complex(0, 4));
}

TEST(MatrixTest, TraceSumsDiagonal) {
  Matrix m{{Complex(1, 1), Complex(9, 9)}, {Complex(9, 9), Complex(2, -1)}};
  EXPECT_EQ(m.Trace(), Complex(3, 0));
}

TEST(MatrixTest, ApplyToVector) {
  Matrix x = SingleQubitMatrix(GateKind::kX, {});
  std::vector<Complex> v{Complex(1, 0), Complex(0, 0)};
  auto out = x.Apply(v);
  EXPECT_EQ(out[0], Complex(0, 0));
  EXPECT_EQ(out[1], Complex(1, 0));
}

class StandardGateUnitarity : public ::testing::TestWithParam<GateKind> {};

TEST_P(StandardGateUnitarity, FixedGatesAreUnitary) {
  EXPECT_TRUE(SingleQubitMatrix(GetParam(), {}).IsUnitary());
}

INSTANTIATE_TEST_SUITE_P(AllFixed, StandardGateUnitarity,
                         ::testing::Values(GateKind::kI, GateKind::kX,
                                           GateKind::kY, GateKind::kZ,
                                           GateKind::kH, GateKind::kS,
                                           GateKind::kSdg, GateKind::kT,
                                           GateKind::kTdg));

class RotationGateUnitarity
    : public ::testing::TestWithParam<std::tuple<GateKind, double>> {};

TEST_P(RotationGateUnitarity, RotationsAreUnitary) {
  auto [kind, theta] = GetParam();
  EXPECT_TRUE(SingleQubitMatrix(kind, {theta}).IsUnitary());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RotationGateUnitarity,
    ::testing::Combine(::testing::Values(GateKind::kRX, GateKind::kRY,
                                         GateKind::kRZ, GateKind::kPhase),
                       ::testing::Values(-2.5, -0.3, 0.0, 0.7, 3.1)));

TEST(GateMatrixTest, HIsHermitianAndSelfInverse) {
  Matrix h = SingleQubitMatrix(GateKind::kH, {});
  EXPECT_TRUE(h.IsHermitian());
  EXPECT_TRUE((h * h).ApproxEqual(Matrix::Identity(2)));
}

TEST(GateMatrixTest, SSquaredIsZ) {
  Matrix s = SingleQubitMatrix(GateKind::kS, {});
  Matrix z = SingleQubitMatrix(GateKind::kZ, {});
  EXPECT_TRUE((s * s).ApproxEqual(z));
}

TEST(GateMatrixTest, TSquaredIsS) {
  Matrix t = SingleQubitMatrix(GateKind::kT, {});
  Matrix s = SingleQubitMatrix(GateKind::kS, {});
  EXPECT_TRUE((t * t).ApproxEqual(s));
}

TEST(GateMatrixTest, U3ReproducesRy) {
  // U3(theta, 0, 0) == RY(theta) in the IBM convention.
  Matrix u = SingleQubitMatrix(GateKind::kU3, {0.7, 0.0, 0.0});
  Matrix ry = SingleQubitMatrix(GateKind::kRY, {0.7});
  EXPECT_TRUE(u.ApproxEqual(ry));
}

TEST(GateMatrixTest, XYZAnticommute) {
  Matrix x = SingleQubitMatrix(GateKind::kX, {});
  Matrix y = SingleQubitMatrix(GateKind::kY, {});
  Matrix xy = x * y, yx = y * x;
  EXPECT_TRUE((xy + yx).ApproxEqual(Matrix::Zero(2, 2)));
}

}  // namespace
}  // namespace linalg
}  // namespace qdm
