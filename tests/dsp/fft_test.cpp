#include "dsp/fft.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <random>
#include <stdexcept>

#include "dsp/matched_filter.hpp"

namespace echoimage::dsp {
namespace {

ComplexSignal random_complex(std::size_t n, unsigned seed) {
  std::mt19937 gen(seed);
  std::normal_distribution<double> d(0.0, 1.0);
  ComplexSignal x(n);
  for (Complex& c : x) c = Complex(d(gen), d(gen));
  return x;
}

// Direct O(n^2) DFT as the reference implementation.
ComplexSignal reference_dft(const ComplexSignal& x) {
  const std::size_t n = x.size();
  ComplexSignal out(n, Complex(0.0, 0.0));
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t t = 0; t < n; ++t) {
      const double ang = -2.0 * std::numbers::pi * static_cast<double>(k * t) /
                         static_cast<double>(n);
      out[k] += x[t] * Complex(std::cos(ang), std::sin(ang));
    }
  return out;
}

// Out-of-place wrappers over the in-place transform.
ComplexSignal forward(ComplexSignal x) {
  fft_pow2_in_place(x, false);
  return x;
}

ComplexSignal inverse(ComplexSignal x) {
  fft_pow2_in_place(x, true);
  return x;
}

// `x` zero-padded to next_pow2(x.size()): how callers transform a signal
// whose length is not a power of two.
ComplexSignal zero_padded(ComplexSignal x) {
  x.resize(next_pow2(x.size()), Complex(0.0, 0.0));
  return x;
}

// Linear convolution of two real signals through the zero-padded transform
// (the convolution theorem).
Signal convolve(const Signal& a, const Signal& b) {
  const std::size_t out_len = a.size() + b.size() - 1;
  ComplexSignal fa(next_pow2(out_len), Complex(0.0, 0.0));
  ComplexSignal fb(fa.size(), Complex(0.0, 0.0));
  for (std::size_t i = 0; i < a.size(); ++i) fa[i] = a[i];
  for (std::size_t i = 0; i < b.size(); ++i) fb[i] = b[i];
  fft_pow2_in_place(fa, false);
  fft_pow2_in_place(fb, false);
  for (std::size_t k = 0; k < fa.size(); ++k) fa[k] *= fb[k];
  fft_pow2_in_place(fa, true);
  Signal out(out_len);
  for (std::size_t i = 0; i < out_len; ++i) out[i] = fa[i].real();
  return out;
}

double max_error(const ComplexSignal& a, const ComplexSignal& b) {
  EXPECT_EQ(a.size(), b.size());
  double e = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    e = std::max(e, std::abs(a[i] - b[i]));
  return e;
}

TEST(Fft, NextPow2) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

TEST(Fft, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(48));
}

TEST(Fft, Pow2RejectsNonPow2) {
  ComplexSignal x(6);
  EXPECT_THROW(fft_pow2_in_place(x, false), std::invalid_argument);
}

TEST(Fft, ImpulseHasFlatSpectrum) {
  ComplexSignal x(8, Complex(0.0, 0.0));
  x[0] = Complex(1.0, 0.0);
  const ComplexSignal y = forward(x);
  for (const Complex& c : y) EXPECT_NEAR(std::abs(c - 1.0), 0.0, 1e-12);
}

TEST(Fft, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  ComplexSignal x(n);
  for (std::size_t t = 0; t < n; ++t) {
    const double ang = 2.0 * std::numbers::pi * 5.0 * static_cast<double>(t) /
                       static_cast<double>(n);
    x[t] = Complex(std::cos(ang), std::sin(ang));
  }
  const ComplexSignal y = forward(x);
  EXPECT_NEAR(std::abs(y[5]), static_cast<double>(n), 1e-9);
  for (std::size_t k = 0; k < n; ++k)
    if (k != 5) {
      EXPECT_NEAR(std::abs(y[k]), 0.0, 1e-9);
    }
}

// Each size is a signal length; a length that is not a power of two is
// zero-padded to the next one first, as the drift monitor's noise spectrum
// does.
class FftSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizeTest, MatchesReferenceDft) {
  const std::size_t n = GetParam();
  const ComplexSignal x =
      zero_padded(random_complex(n, 42 + static_cast<unsigned>(n)));
  EXPECT_LT(max_error(forward(x), reference_dft(x)),
            1e-8 * static_cast<double>(x.size()));
}

TEST_P(FftSizeTest, ForwardInverseRoundTrip) {
  const std::size_t n = GetParam();
  const ComplexSignal x =
      zero_padded(random_complex(n, 7 + static_cast<unsigned>(n)));
  EXPECT_LT(max_error(inverse(forward(x)), x),
            1e-9 * static_cast<double>(x.size()));
}

TEST_P(FftSizeTest, ParsevalHolds) {
  const std::size_t n = GetParam();
  const ComplexSignal x =
      zero_padded(random_complex(n, 3 + static_cast<unsigned>(n)));
  const ComplexSignal y = forward(x);
  double ex = 0.0, ey = 0.0;
  for (const Complex& c : x) ex += std::norm(c);
  for (const Complex& c : y) ey += std::norm(c);
  EXPECT_NEAR(ey / static_cast<double>(x.size()), ex, 1e-8 * (1.0 + ex));
}

// Every power of two from 1 to 1024, plus composite and prime lengths that
// go through zero-padding.
INSTANTIATE_TEST_SUITE_P(Sizes, FftSizeTest,
                         ::testing::Values<std::size_t>(1, 2, 4, 8, 16, 32, 64,
                                                        128, 256, 512, 1024, 3,
                                                        5, 6, 12, 17, 31, 60,
                                                        97, 100, 255));

TEST(Fft, RealFftOfCosineIsConjugateSymmetric) {
  const std::size_t n = 32;
  Signal x(n);
  for (std::size_t t = 0; t < n; ++t)
    x[t] = std::cos(2.0 * std::numbers::pi * 3.0 * static_cast<double>(t) /
                    static_cast<double>(n));
  const ComplexSignal y = forward(ComplexSignal(x.begin(), x.end()));
  for (std::size_t k = 1; k < n; ++k) {
    EXPECT_NEAR(std::abs(y[k] - std::conj(y[n - k])), 0.0, 1e-9);
  }
  EXPECT_NEAR(std::abs(y[3]), static_cast<double>(n) / 2.0, 1e-9);
}

TEST(Fft, IfftRealRecoversSignal) {
  const Signal x{0.5, -1.0, 2.0, 0.25, -0.75};
  const ComplexSignal y =
      inverse(forward(zero_padded(ComplexSignal(x.begin(), x.end()))));
  ASSERT_EQ(y.size(), 8u);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(y[i].real(), i < x.size() ? x[i] : 0.0, 1e-10);
    EXPECT_NEAR(y[i].imag(), 0.0, 1e-10);
  }
}

TEST(Fft, BinFrequencyPositiveAndNegative) {
  EXPECT_DOUBLE_EQ(bin_frequency(0, 8, 48000.0), 0.0);
  EXPECT_DOUBLE_EQ(bin_frequency(1, 8, 48000.0), 6000.0);
  EXPECT_DOUBLE_EQ(bin_frequency(7, 8, 48000.0), -6000.0);
  EXPECT_DOUBLE_EQ(bin_frequency(4, 8, 48000.0), 24000.0);
}

TEST(Fft, ConvolveMatchesDirectConvolution) {
  const Signal a{1.0, 2.0, 3.0};
  const Signal b{0.5, -1.0};
  const Signal c = convolve(a, b);
  ASSERT_EQ(c.size(), 4u);
  EXPECT_NEAR(c[0], 0.5, 1e-10);
  EXPECT_NEAR(c[1], 0.0, 1e-10);
  EXPECT_NEAR(c[2], -0.5, 1e-10);
  EXPECT_NEAR(c[3], -3.0, 1e-10);
}

TEST(Fft, ConvolveWithImpulseIsIdentity) {
  const Signal a{1.0, -2.0, 4.0, 0.5};
  const Signal c = convolve(a, Signal{1.0});
  ASSERT_EQ(c.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(c[i], a[i], 1e-10);
}

TEST(Fft, CorrelatePeaksAtLag) {
  // a contains b delayed by 3 samples; the FFT correlation behind the
  // matched filter must peak there (index i = onset at sample i).
  Signal b{1.0, 2.0, 1.0};
  Signal a(10, 0.0);
  for (std::size_t i = 0; i < b.size(); ++i) a[3 + i] = b[i];
  const Signal r = matched_filter(a, b);
  std::size_t best = 0;
  for (std::size_t i = 1; i < r.size(); ++i)
    if (r[i] > r[best]) best = i;
  EXPECT_EQ(best, 3u);
}

}  // namespace
}  // namespace echoimage::dsp
