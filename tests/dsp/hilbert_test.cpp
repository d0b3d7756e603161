#include "dsp/hilbert.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

namespace echoimage::dsp {
namespace {

TEST(Hilbert, RealPartIsOriginalSignal) {
  Signal x(128);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::sin(0.3 * static_cast<double>(i)) +
           0.5 * std::cos(0.7 * static_cast<double>(i));
  const ComplexSignal a = analytic_signal(x);
  ASSERT_EQ(a.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(a[i].real(), x[i], 1e-9);
}

TEST(Hilbert, CosineBecomesComplexExponential) {
  const std::size_t n = 256;
  Signal x(n);
  const double w = 2.0 * std::numbers::pi * 16.0 / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = std::cos(w * static_cast<double>(i));
  const ComplexSignal a = analytic_signal(x);
  // analytic(cos(wt)) = exp(jwt): imaginary part = sin(wt).
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(a[i].imag(), std::sin(w * static_cast<double>(i)), 1e-9);
}

TEST(Hilbert, EnvelopeOfToneIsConstant) {
  const std::size_t n = 512;
  Signal x(n);
  const double w = 2.0 * std::numbers::pi * 32.0 / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = 0.8 * std::cos(w * static_cast<double>(i));
  const Signal env = envelope(x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(env[i], 0.8, 1e-8);
}

TEST(Hilbert, EnvelopeTracksAmplitudeModulation) {
  const std::size_t n = 2048;
  Signal x(n);
  const double wc = 2.0 * std::numbers::pi * 256.0 / static_cast<double>(n);
  const double wm = 2.0 * std::numbers::pi * 4.0 / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double am = 1.0 + 0.5 * std::cos(wm * static_cast<double>(i));
    x[i] = am * std::cos(wc * static_cast<double>(i));
  }
  const Signal env = envelope(x);
  // Away from edges the envelope must match the modulation.
  for (std::size_t i = n / 8; i < 7 * n / 8; ++i) {
    const double am = 1.0 + 0.5 * std::cos(wm * static_cast<double>(i));
    EXPECT_NEAR(env[i], am, 0.02);
  }
}

TEST(Hilbert, EmptySignalHandled) {
  EXPECT_TRUE(analytic_signal(Signal{}).empty());
  EXPECT_TRUE(envelope(Signal{}).empty());
  EXPECT_TRUE(moving_average(Signal{}, 5).empty());
}

TEST(Hilbert, ArbitraryLengthAccepted) {
  // Non-power-of-two length exercises the pad-and-truncate path.
  Signal x(100, 1.0);
  const ComplexSignal a = analytic_signal(x);
  EXPECT_EQ(a.size(), 100u);
}

TEST(MovingAverage, LengthOneIsIdentity) {
  const Signal x{1.0, 2.0, 3.0};
  const Signal y = moving_average(x, 1);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_DOUBLE_EQ(y[i], x[i]);
}

TEST(MovingAverage, SmoothsConstantExactly) {
  const Signal x(64, 5.0);
  const Signal y = moving_average(x, 9);
  for (const double v : y) EXPECT_NEAR(v, 5.0, 1e-12);
}

TEST(MovingAverage, CentralValueOfTriangle) {
  const Signal x{0.0, 0.0, 3.0, 0.0, 0.0};
  const Signal y = moving_average(x, 3);
  EXPECT_NEAR(y[2], 1.0, 1e-12);
  EXPECT_NEAR(y[1], 1.0, 1e-12);
  EXPECT_NEAR(y[0], 0.0, 1e-12);  // reflected edge sees zeros
}

TEST(MovingAverage, EvenLengthRoundedUpToOdd) {
  // len 4 -> 5; a symmetric window keeps a linear ramp unchanged inside.
  Signal x(32);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<double>(i);
  const Signal y = moving_average(x, 4);
  for (std::size_t i = 3; i < x.size() - 3; ++i)
    EXPECT_NEAR(y[i], x[i], 1e-12);
}

TEST(MovingAverage, PreservesMeanOfLongSignal) {
  Signal x(256);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::sin(0.1 * static_cast<double>(i)) + 2.0;
  const Signal y = moving_average(x, 15);
  EXPECT_NEAR(mean(y), mean(x), 0.02);
}

}  // namespace
}  // namespace echoimage::dsp
