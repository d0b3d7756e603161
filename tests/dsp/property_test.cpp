// Cross-cutting DSP property tests: randomized invariants that hold across
// the stack (linearity, shift covariance, energy conservation), swept with
// parameterized seeds.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <random>

#include "dsp/butterworth.hpp"
#include "dsp/chirp.hpp"
#include "dsp/fft.hpp"
#include "dsp/hilbert.hpp"
#include "dsp/matched_filter.hpp"

namespace echoimage::dsp {
namespace {

Signal random_signal(std::size_t n, unsigned seed) {
  std::mt19937 gen(seed);
  std::normal_distribution<double> d(0.0, 1.0);
  Signal x(n);
  for (double& v : x) v = d(gen);
  return x;
}

ComplexSignal spectrum(const Signal& x) {
  ComplexSignal c(x.begin(), x.end());
  fft_pow2_in_place(c, false);
  return c;
}

class DspPropertyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(DspPropertyTest, FftIsLinear) {
  const unsigned seed = GetParam();
  const Signal a = random_signal(128, seed);
  const Signal b = random_signal(128, seed + 1000);
  Signal combo(128);
  for (std::size_t i = 0; i < 128; ++i) combo[i] = 2.0 * a[i] - 3.0 * b[i];
  const ComplexSignal fa = spectrum(a);
  const ComplexSignal fb = spectrum(b);
  const ComplexSignal fc = spectrum(combo);
  for (std::size_t k = 0; k < 128; ++k)
    EXPECT_NEAR(std::abs(fc[k] - (2.0 * fa[k] - 3.0 * fb[k])), 0.0, 1e-8);
}

TEST_P(DspPropertyTest, FftShiftTheorem) {
  // Circular shift by s multiplies bin k by exp(-2 pi i k s / N).
  const unsigned seed = GetParam();
  const std::size_t n = 64, s = 5 + seed % 20;
  const Signal x = random_signal(n, seed);
  Signal shifted(n);
  for (std::size_t i = 0; i < n; ++i) shifted[(i + s) % n] = x[i];
  const ComplexSignal fx = spectrum(x);
  const ComplexSignal fs = spectrum(shifted);
  for (std::size_t k = 0; k < n; ++k) {
    const Complex w = std::polar(
        1.0, -2.0 * std::numbers::pi * static_cast<double>(k * s) /
                 static_cast<double>(n));
    EXPECT_NEAR(std::abs(fs[k] - fx[k] * w), 0.0, 1e-8);
  }
}

TEST_P(DspPropertyTest, FiltFiltIsLinear) {
  const unsigned seed = GetParam();
  const auto f = butterworth_bandpass(4, 2000.0, 3000.0, 48000.0);
  const Signal a = random_signal(512, seed);
  const Signal b = random_signal(512, seed + 99);
  Signal combo(512);
  for (std::size_t i = 0; i < 512; ++i) combo[i] = a[i] + b[i];
  const Signal fa = f.filtfilt(a);
  const Signal fb = f.filtfilt(b);
  const Signal fc = f.filtfilt(combo);
  for (std::size_t i = 0; i < 512; ++i)
    EXPECT_NEAR(fc[i], fa[i] + fb[i], 1e-9);
}

TEST_P(DspPropertyTest, MatchedFilterShiftCovariance) {
  // Delaying the received signal by s samples delays the correlation peak
  // by exactly s.
  const unsigned seed = GetParam();
  const Chirp chirp{ChirpParams{}};
  const Signal tmpl = chirp.sample(48000.0);
  const std::size_t s = 40 + seed % 60;
  const Signal r0 = chirp.render_delayed(48000.0, 1024, 100.0 / 48000.0, 1.0);
  const Signal r1 = chirp.render_delayed(
      48000.0, 1024, (100.0 + static_cast<double>(s)) / 48000.0, 1.0);
  const Signal c0 = matched_filter(r0, tmpl);
  const Signal c1 = matched_filter(r1, tmpl);
  std::size_t p0 = 0, p1 = 0;
  for (std::size_t i = 0; i < 1024; ++i) {
    if (c0[i] > c0[p0]) p0 = i;
    if (c1[i] > c1[p1]) p1 = i;
  }
  EXPECT_EQ(p1 - p0, s);
}

TEST_P(DspPropertyTest, AnalyticSignalPreservesEnergyInBand) {
  // |analytic|^2 integrates to ~2x the real signal's energy for signals
  // without DC (Parseval on the one-sided spectrum).
  const unsigned seed = GetParam();
  const auto f = butterworth_bandpass(4, 2000.0, 3000.0, 48000.0);
  const Signal x = f.filtfilt(random_signal(2048, seed));
  const ComplexSignal a = analytic_signal(x);
  double ex = 0.0, ea = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    ex += x[i] * x[i];
    ea += std::norm(a[i]);
  }
  EXPECT_NEAR(ea / ex, 2.0, 0.05);
}

TEST_P(DspPropertyTest, EnvelopeBoundsSignal) {
  const unsigned seed = GetParam();
  const auto f = butterworth_bandpass(2, 1000.0, 4000.0, 48000.0);
  const Signal x = f.filtfilt(random_signal(1024, seed));
  const Signal env = envelope(x);
  for (std::size_t i = 8; i < x.size() - 8; ++i)
    EXPECT_GE(env[i] + 1e-9, std::abs(x[i]));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DspPropertyTest,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

}  // namespace
}  // namespace echoimage::dsp
