#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <stdexcept>

namespace echoimage::linalg {
namespace {

CMatrix random_hpd(std::size_t n, unsigned seed) {
  // A^H A + n I is Hermitian positive definite.
  std::mt19937 gen(seed);
  std::normal_distribution<double> d(0.0, 1.0);
  CMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = Complex(d(gen), d(gen));
  CMatrix h = multiply(a.hermitian(), a);
  h.add_diagonal(static_cast<double>(n));
  return h;
}

TEST(CMatrix, IdentityConstruction) {
  const CMatrix i = CMatrix::identity(3);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_EQ(i(r, c), (r == c ? Complex(1.0, 0.0) : Complex(0.0, 0.0)));
}

TEST(CMatrix, HermitianTransposeConjugates) {
  CMatrix m(2, 3);
  m(0, 1) = Complex(1.0, 2.0);
  m(1, 2) = Complex(-3.0, 4.0);
  const CMatrix h = m.hermitian();
  EXPECT_EQ(h.rows(), 3u);
  EXPECT_EQ(h.cols(), 2u);
  EXPECT_EQ(h(1, 0), Complex(1.0, -2.0));
  EXPECT_EQ(h(2, 1), Complex(-3.0, -4.0));
}

TEST(CMatrix, FrobeniusNorm) {
  CMatrix m(2, 2);
  m(0, 0) = Complex(3.0, 0.0);
  m(1, 1) = Complex(0.0, 4.0);
  EXPECT_DOUBLE_EQ(m.frobenius_norm(), 5.0);
}

TEST(CMatrix, AddDiagonalRequiresSquare) {
  CMatrix m(2, 3);
  EXPECT_THROW(m.add_diagonal(1.0), std::invalid_argument);
  CMatrix sq(2, 2);
  sq.add_diagonal(2.5);
  EXPECT_DOUBLE_EQ(sq(0, 0).real(), 2.5);
  EXPECT_DOUBLE_EQ(sq(1, 1).real(), 2.5);
}

TEST(CMatrix, MeanDiagonalReal) {
  CMatrix m(2, 2);
  m(0, 0) = Complex(2.0, 5.0);
  m(1, 1) = Complex(4.0, -1.0);
  EXPECT_DOUBLE_EQ(m.mean_diagonal_real(), 3.0);
}

TEST(Multiply, MatrixMatrixKnownProduct) {
  CMatrix a(2, 2), b(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 3.0;
  a(1, 1) = 4.0;
  b(0, 0) = 5.0;
  b(0, 1) = 6.0;
  b(1, 0) = 7.0;
  b(1, 1) = 8.0;
  const CMatrix c = multiply(a, b);
  EXPECT_EQ(c(0, 0), Complex(19.0, 0.0));
  EXPECT_EQ(c(0, 1), Complex(22.0, 0.0));
  EXPECT_EQ(c(1, 0), Complex(43.0, 0.0));
  EXPECT_EQ(c(1, 1), Complex(50.0, 0.0));
}

TEST(Multiply, ShapeMismatchThrows) {
  EXPECT_THROW(multiply(CMatrix(2, 3), CMatrix(2, 3)), std::invalid_argument);
  EXPECT_THROW(multiply(CMatrix(2, 3), std::vector<Complex>(2)),
               std::invalid_argument);
}

TEST(Multiply, MatrixVectorAgainstIdentity) {
  const CMatrix i = CMatrix::identity(4);
  std::vector<Complex> x{{1, 1}, {2, -1}, {0, 3}, {-4, 0}};
  const auto y = multiply(i, x);
  for (std::size_t k = 0; k < 4; ++k) EXPECT_EQ(y[k], x[k]);
}

TEST(Hdot, ConjugatesFirstArgument) {
  const std::vector<Complex> x{{0.0, 1.0}};
  const std::vector<Complex> y{{0.0, 1.0}};
  EXPECT_EQ(hdot(x, y), Complex(1.0, 0.0));  // conj(i)*i = 1
}

TEST(Outer, RankOneStructure) {
  const std::vector<Complex> x{{1.0, 0.0}, {0.0, 1.0}};
  const std::vector<Complex> y{{2.0, 0.0}};
  const CMatrix m = outer(x, y);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 1u);
  EXPECT_EQ(m(0, 0), Complex(2.0, 0.0));
  EXPECT_EQ(m(1, 0), Complex(0.0, 2.0));
}

class InverseTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(InverseTest, InverseTimesOriginalIsIdentity) {
  const std::size_t n = GetParam();
  const CMatrix a = random_hpd(n, 55 + static_cast<unsigned>(n));
  const CMatrix inv = inverse(a);
  const CMatrix prod = multiply(a, inv);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_NEAR(std::abs(prod(i, j) - (i == j ? Complex(1.0, 0.0)
                                                : Complex(0.0, 0.0))),
                  0.0, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, InverseTest,
                         ::testing::Values<std::size_t>(1, 2, 3, 6, 12));

TEST(Inverse, SingularMatrixThrows) {
  CMatrix m(2, 2);  // all zeros
  EXPECT_THROW((void)inverse(m), std::runtime_error);
}

TEST(Inverse, RequiresSquare) {
  EXPECT_THROW((void)inverse(CMatrix(2, 3)), std::invalid_argument);
}

TEST(Inverse, ComplexRotationMatrix) {
  // Unitary rotation: inverse equals Hermitian transpose.
  CMatrix u(2, 2);
  const double c = std::cos(0.7), s = std::sin(0.7);
  u(0, 0) = Complex(c, 0.0);
  u(0, 1) = Complex(0.0, -s);
  u(1, 0) = Complex(0.0, -s);
  u(1, 1) = Complex(c, 0.0);
  const CMatrix inv = inverse(u);
  const CMatrix uh = u.hermitian();
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j)
      EXPECT_NEAR(std::abs(inv(i, j) - uh(i, j)), 0.0, 1e-10);
}

}  // namespace
}  // namespace echoimage::linalg
