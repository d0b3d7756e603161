#include "dsp/biquad.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <random>
#include <vector>

#include "dsp/butterworth.hpp"
#include "simd/isa.hpp"

namespace echoimage::dsp {
namespace {

TEST(BiquadSection, IdentitySectionPassesSignalThrough) {
  const SosCascade identity({BiquadSection{}});
  const Signal x{1.0, -2.0, 3.0, 0.5};
  const Signal y = identity.filter(x);
  ASSERT_EQ(y.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_DOUBLE_EQ(y[i], x[i]);
}

TEST(BiquadSection, StabilityCriterion) {
  BiquadSection stable;
  stable.a1 = -1.0;
  stable.a2 = 0.5;
  EXPECT_TRUE(stable.is_stable());
  BiquadSection unstable;
  unstable.a1 = 0.0;
  unstable.a2 = 1.5;  // poles outside unit circle
  EXPECT_FALSE(unstable.is_stable());
  BiquadSection marginal;
  marginal.a1 = -2.0;
  marginal.a2 = 1.0;  // double pole at z = 1
  EXPECT_FALSE(marginal.is_stable());
}

TEST(BiquadSection, ResponseOfFirMatchesAnalytic) {
  // y[n] = x[n] - x[n-1]: H(w) = 1 - e^{-jw}; |H(0)| = 0, |H(pi)| = 2.
  BiquadSection s;
  s.b0 = 1.0;
  s.b1 = -1.0;
  EXPECT_NEAR(std::abs(s.response(0.0)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(s.response(std::numbers::pi)), 2.0, 1e-12);
}

TEST(SosCascade, GainScalesOutput) {
  SosCascade c({BiquadSection{}}, 3.0);
  const Signal y = c.filter(Signal{1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 3.0);
}

TEST(SosCascade, CascadeResponseIsProductOfSections) {
  BiquadSection s;
  s.b0 = 1.0;
  s.b1 = -1.0;
  const SosCascade one({s});
  const SosCascade two({s, s});
  const double w = 1.0;
  EXPECT_NEAR(std::abs(two.response(w)),
              std::abs(one.response(w)) * std::abs(one.response(w)), 1e-12);
}

TEST(SosCascade, MovingAverageFilterImpulseResponse) {
  // y[n] = (x[n] + x[n-1]) / 2.
  BiquadSection s;
  s.b0 = 0.5;
  s.b1 = 0.5;
  const SosCascade c({s});
  Signal impulse(4, 0.0);
  impulse[0] = 1.0;
  const Signal y = c.filter(impulse);
  EXPECT_DOUBLE_EQ(y[0], 0.5);
  EXPECT_DOUBLE_EQ(y[1], 0.5);
  EXPECT_DOUBLE_EQ(y[2], 0.0);
}

TEST(SosCascade, RecursiveFilterMatchesManualRecursion) {
  // y[n] = x[n] + 0.5 y[n-1].
  BiquadSection s;
  s.a1 = -0.5;
  const SosCascade c({s});
  Signal impulse(6, 0.0);
  impulse[0] = 1.0;
  const Signal y = c.filter(impulse);
  double expected = 1.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(y[i], expected, 1e-12);
    expected *= 0.5;
  }
}

TEST(SosCascade, FiltFiltHasZeroPhase) {
  // Zero-phase filtering must not delay a slow sine.
  BiquadSection s;  // one-pole smoother
  s.b0 = 0.3;
  s.a1 = -0.7;
  const SosCascade c({s});
  const std::size_t n = 1024;
  Signal x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = std::sin(2.0 * std::numbers::pi * 5.0 * static_cast<double>(i) /
                    static_cast<double>(n));
  const Signal y = c.filtfilt(x);
  // Peak positions must coincide (no group delay).
  std::size_t px = 0, py = 0;
  for (std::size_t i = n / 4; i < n / 2; ++i) {
    if (x[i] > x[px]) px = i;
    if (y[i] > y[py]) py = i;
  }
  EXPECT_NEAR(static_cast<double>(px), static_cast<double>(py), 2.0);
}

TEST(SosCascade, FiltFiltSquaresMagnitudeResponse) {
  BiquadSection s;
  s.b0 = 0.5;
  s.b1 = 0.5;
  const SosCascade c({s});
  const std::size_t n = 4096;
  const double w = 2.0 * std::numbers::pi * 0.05;
  Signal x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = std::cos(w * static_cast<double>(i));
  const Signal y = c.filtfilt(x);
  const double expected = std::pow(std::abs(c.response(w)), 2.0);
  // Compare RMS in the steady-state middle region.
  double rx = 0.0, ry = 0.0;
  for (std::size_t i = n / 4; i < 3 * n / 4; ++i) {
    rx += x[i] * x[i];
    ry += y[i] * y[i];
  }
  EXPECT_NEAR(std::sqrt(ry / rx), expected, 0.01);
}

TEST(SosCascade, FiltFiltOfEmptyIsEmpty) {
  const SosCascade c({BiquadSection{}});
  EXPECT_TRUE(c.filtfilt(Signal{}).empty());
}

TEST(SosCascade, FiltFiltHandlesShortSignals) {
  const SosCascade c({BiquadSection{}});
  const Signal y = c.filtfilt(Signal{1.0, 2.0});
  ASSERT_EQ(y.size(), 2u);
  EXPECT_NEAR(y[0], 1.0, 1e-9);
  EXPECT_NEAR(y[1], 2.0, 1e-9);
}

TEST(SosCascade, IsStableChecksAllSections) {
  BiquadSection good;
  BiquadSection bad;
  bad.a2 = 2.0;
  EXPECT_TRUE(SosCascade({good}).is_stable());
  EXPECT_FALSE(SosCascade({good, bad}).is_stable());
}

Signal random_signal(std::size_t n, unsigned seed) {
  std::mt19937 gen(seed);
  std::normal_distribution<double> d(0.0, 1.0);
  Signal x(n);
  for (double& v : x) v = d(gen);
  return x;
}

TEST(SosCascade, FiltFiltMultiMatchesPerChannelFiltFiltOnEveryLane) {
  // The lockstep contract: filtfilt_multi equals per-channel filtfilt bit
  // for bit, on every ISA lane, for the imager's order-4 probing band-pass
  // and an order-2 subband filter.
  const std::vector<SosCascade> filters = {
      butterworth_bandpass(4, 2000.0, 3000.0, 48000.0),
      butterworth_bandpass(2, 2000.0, 2200.0, 48000.0)};
  std::vector<Signal> six, five, noise;
  for (unsigned c = 0; c < 6; ++c) six.push_back(random_signal(2880, 10 + c));
  for (unsigned c = 0; c < 5; ++c) five.push_back(random_signal(2880, 30 + c));
  for (unsigned c = 0; c < 6; ++c)
    noise.push_back(random_signal(2048, 40 + c));
  const std::vector<std::vector<Signal>> inputs = {
      six,                                               // lockstep
      five,   // one microphone masked
      noise,  // a noise gap
      {random_signal(2880, 20)},                         // one channel
      {random_signal(100, 21), random_signal(2880, 22),  // ragged
       random_signal(37, 23)},
      {Signal{}, Signal{}},  // equal-length, empty channels
      {},                    // no channels
  };
  for (const simd::Isa isa : simd::supported_isas()) {
    simd::ScopedIsa forced(isa);
    for (const SosCascade& filter : filters) {
      for (std::size_t in = 0; in < inputs.size(); ++in) {
        const std::vector<Signal>& x = inputs[in];
        const std::vector<Signal> y = filter.filtfilt_multi(x);
        ASSERT_EQ(y.size(), x.size()) << "input " << in;
        for (std::size_t c = 0; c < x.size(); ++c) {
          const Signal want = filter.filtfilt(x[c]);
          ASSERT_EQ(y[c].size(), want.size());
          for (std::size_t t = 0; t < want.size(); ++t)
            ASSERT_EQ(std::bit_cast<std::uint64_t>(y[c][t]),
                      std::bit_cast<std::uint64_t>(want[t]))
                << "lane " << simd::isa_name(isa) << " input " << in
                << " channel " << c << " sample " << t;
        }
      }
    }
  }
}

}  // namespace
}  // namespace echoimage::dsp
