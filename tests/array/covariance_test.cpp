#include "array/covariance.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <stdexcept>

namespace echoimage::array {
namespace {

using echoimage::dsp::Complex;
using echoimage::dsp::ComplexSignal;

std::vector<ComplexSignal> independent_noise(std::size_t mics, std::size_t n,
                                             unsigned seed) {
  std::mt19937 gen(seed);
  std::normal_distribution<double> d(0.0, 1.0);
  std::vector<ComplexSignal> ch(mics, ComplexSignal(n));
  for (auto& c : ch)
    for (Complex& v : c) v = Complex(d(gen), d(gen));
  return ch;
}

TEST(SpatialCovariance, RejectsEmptyInputs) {
  EXPECT_THROW((void)spatial_covariance({}, 0, 10), std::invalid_argument);
  EXPECT_THROW((void)spatial_covariance(independent_noise(2, 8, 1), 0, 0),
               std::invalid_argument);
}

TEST(SpatialCovariance, IndependentNoiseIsNearDiagonal) {
  const auto ch = independent_noise(4, 8192, 99);
  const CMatrix r = spatial_covariance(ch, 0, 8192);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(r(i, i).real(), 2.0, 0.15);  // var(re) + var(im)
    for (std::size_t j = 0; j < 4; ++j)
      if (i != j) {
        EXPECT_LT(std::abs(r(i, j)), 0.15);
      }
  }
}

TEST(SpatialCovariance, CoherentSignalIsRankOne) {
  // Identical signals across mics: all entries equal.
  ComplexSignal base(256);
  std::mt19937 gen(5);
  std::normal_distribution<double> d(0.0, 1.0);
  for (Complex& v : base) v = Complex(d(gen), d(gen));
  const std::vector<ComplexSignal> ch(3, base);
  const CMatrix r = spatial_covariance(ch, 0, 256);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      EXPECT_NEAR(std::abs(r(i, j) - r(0, 0)), 0.0, 1e-9);
}

TEST(SpatialCovariance, HermitianProperty) {
  const auto ch = independent_noise(5, 512, 3);
  const CMatrix r = spatial_covariance(ch, 0, 512);
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 5; ++j)
      EXPECT_NEAR(std::abs(r(i, j) - std::conj(r(j, i))), 0.0, 1e-12);
}

TEST(SpatialCovariance, RangeSelectsSnapshots) {
  // First half silent, second half loud: covariance over each half differs.
  std::vector<ComplexSignal> ch(2, ComplexSignal(100, Complex(0.0, 0.0)));
  for (std::size_t t = 50; t < 100; ++t) {
    ch[0][t] = Complex(2.0, 0.0);
    ch[1][t] = Complex(2.0, 0.0);
  }
  const CMatrix quiet = spatial_covariance(ch, 0, 50);
  const CMatrix loud = spatial_covariance(ch, 50, 50);
  EXPECT_NEAR(quiet(0, 0).real(), 0.0, 1e-12);
  EXPECT_NEAR(loud(0, 0).real(), 4.0, 1e-12);
}

TEST(SpatialCovariance, OutOfRangeSnapshotsAreZero) {
  const auto ch = independent_noise(2, 16, 11);
  // Range extends beyond the signal: implicit zeros shrink the average.
  const CMatrix r = spatial_covariance(ch, 0, 32);
  const CMatrix r_half = spatial_covariance(ch, 0, 16);
  EXPECT_NEAR(r(0, 0).real(), 0.5 * r_half(0, 0).real(), 1e-12);
}

TEST(SpatialCovariance, MatchesTheComplexProductSumBitwise) {
  // The std::complex loop the real-arithmetic sum replaced, kept as the
  // oracle: every entry sums x_i conj(x_j) over all (i, j) in ascending t,
  // then scales by 1/N. Channel 2 is dead (all zeros, so its entries are
  // signed zeros) and channel 4 ends early, inside the range.
  std::vector<ComplexSignal> ch = independent_noise(6, 300, 11);
  for (Complex& v : ch[2]) v = Complex(0.0, 0.0);
  ch[4].resize(200);
  const std::size_t first = 50, count = 240;
  const CMatrix got = spatial_covariance(ch, first, count);
  CMatrix want(6, 6);
  for (std::size_t t = first; t < first + count; ++t)
    for (std::size_t i = 0; i < 6; ++i)
      for (std::size_t j = 0; j < 6; ++j) {
        const Complex xi = t < ch[i].size() ? ch[i][t] : Complex(0.0, 0.0);
        const Complex xj = t < ch[j].size() ? ch[j][t] : Complex(0.0, 0.0);
        want(i, j) += xi * std::conj(xj);
      }
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 6; ++j) {
      want(i, j) *= 1.0 / static_cast<double>(count);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got(i, j).real()),
                std::bit_cast<std::uint64_t>(want(i, j).real()))
          << i << "," << j;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got(i, j).imag()),
                std::bit_cast<std::uint64_t>(want(i, j).imag()))
          << i << "," << j;
    }
}

TEST(NormalizedCovariance, UnitMeanDiagonal) {
  const auto ch = independent_noise(4, 2048, 21);
  const CMatrix r = normalized_covariance(ch, 0, 2048);
  EXPECT_NEAR(r.mean_diagonal_real(), 1.0, 1e-12);
}

TEST(NormalizedCovariance, AllZeroFallsBackToIdentity) {
  const std::vector<ComplexSignal> ch(3, ComplexSignal(64, Complex(0.0, 0.0)));
  const CMatrix r = normalized_covariance(ch, 0, 64);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      EXPECT_EQ(r(i, j), (i == j ? Complex(1.0, 0.0) : Complex(0.0, 0.0)));
}

TEST(WhiteNoiseCovariance, IsIdentity) {
  const CMatrix r = white_noise_covariance(6);
  EXPECT_EQ(r.rows(), 6u);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(r(i, i), Complex(1.0, 0.0));
}

}  // namespace
}  // namespace echoimage::array
