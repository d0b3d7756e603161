#include "dsp/butterworth.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace echoimage::dsp {
namespace {

constexpr double kFs = 48000.0;

class BandpassOrderTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BandpassOrderTest, StableAtAllOrders) {
  const SosCascade f = butterworth_bandpass(GetParam(), 2000.0, 3000.0, kFs);
  EXPECT_TRUE(f.is_stable());
  EXPECT_EQ(f.sections().size(), GetParam());  // one biquad per pole pair
}

TEST_P(BandpassOrderTest, UnitGainAtCenter) {
  const SosCascade f = butterworth_bandpass(GetParam(), 2000.0, 3000.0, kFs);
  const double fc = std::sqrt(2000.0 * 3000.0);
  EXPECT_NEAR(f.magnitude_at(fc, kFs), 1.0, 1e-4);
}

TEST_P(BandpassOrderTest, StopbandAttenuationGrowsWithOrder) {
  const SosCascade f = butterworth_bandpass(GetParam(), 2000.0, 3000.0, kFs);
  // At an octave below the low edge, attenuation >= 6 dB per pole-ish.
  const double mag = f.magnitude_at(1000.0, kFs);
  EXPECT_LT(mag, std::pow(0.5, static_cast<double>(GetParam())));
}

INSTANTIATE_TEST_SUITE_P(Orders, BandpassOrderTest,
                         ::testing::Values<std::size_t>(1, 2, 3, 4, 5, 6, 8));

TEST(Butterworth, PaperBandpassPassesBandRejectsOutside) {
  const SosCascade f = butterworth_bandpass(4, 2000.0, 3000.0, kFs);
  EXPECT_GT(f.magnitude_at(2500.0, kFs), 0.95);
  EXPECT_NEAR(f.magnitude_at(2000.0, kFs), std::sqrt(0.5), 0.02);  // -3 dB
  EXPECT_NEAR(f.magnitude_at(3000.0, kFs), std::sqrt(0.5), 0.02);
  EXPECT_LT(f.magnitude_at(500.0, kFs), 1e-4);
  EXPECT_LT(f.magnitude_at(8000.0, kFs), 1e-2);
}

TEST(Butterworth, BandpassRejectsInvalidEdges) {
  EXPECT_THROW(butterworth_bandpass(4, 3000.0, 2000.0, kFs),
               std::invalid_argument);
  EXPECT_THROW(butterworth_bandpass(4, 0.0, 2000.0, kFs),
               std::invalid_argument);
  EXPECT_THROW(butterworth_bandpass(4, 2000.0, 30000.0, kFs),
               std::invalid_argument);
  EXPECT_THROW(butterworth_bandpass(0, 2000.0, 3000.0, kFs),
               std::invalid_argument);
}

class LowpassOrderTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LowpassOrderTest, DcGainIsUnity) {
  const SosCascade f = butterworth_lowpass(GetParam(), 1000.0, kFs);
  EXPECT_TRUE(f.is_stable());
  EXPECT_NEAR(f.magnitude_at(0.0, kFs), 1.0, 1e-9);
}

TEST_P(LowpassOrderTest, CutoffIsMinus3Db) {
  const SosCascade f = butterworth_lowpass(GetParam(), 1000.0, kFs);
  EXPECT_NEAR(f.magnitude_at(1000.0, kFs), std::sqrt(0.5), 0.01);
}

TEST_P(LowpassOrderTest, MonotonicRollOff) {
  const SosCascade f = butterworth_lowpass(GetParam(), 1000.0, kFs);
  double prev = f.magnitude_at(1000.0, kFs);
  for (double freq = 2000.0; freq < 20000.0; freq += 2000.0) {
    const double m = f.magnitude_at(freq, kFs);
    EXPECT_LT(m, prev);
    prev = m;
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, LowpassOrderTest,
                         ::testing::Values<std::size_t>(1, 2, 3, 4, 5, 7));

TEST(Butterworth, LowpassRollOffRateMatchesOrder) {
  // An order-n Butterworth falls ~6n dB per octave far above cutoff.
  for (const std::size_t order : {1u, 2u, 4u}) {
    const SosCascade f = butterworth_lowpass(order, 500.0, kFs);
    const double m4k = f.magnitude_at(4000.0, kFs);
    const double m8k = f.magnitude_at(8000.0, kFs);
    const double db_per_octave = 20.0 * std::log10(m4k / m8k);
    EXPECT_NEAR(db_per_octave, 6.02 * static_cast<double>(order),
                0.8 * static_cast<double>(order));
  }
}

TEST(Butterworth, FilteredChirpRetainsInBandEnergy) {
  // The paper's front end: an in-band chirp must survive, an out-of-band
  // tone must not.
  const SosCascade f = butterworth_bandpass(4, 2000.0, 3000.0, kFs);
  const std::size_t n = 4800;
  Signal in_band(n), out_band(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / kFs;
    in_band[i] = std::cos(2.0 * std::numbers::pi * 2500.0 * t);
    out_band[i] = std::cos(2.0 * std::numbers::pi * 500.0 * t);
  }
  const Signal in_f = f.filtfilt(in_band);
  const Signal out_f = f.filtfilt(out_band);
  // Compare steady-state mid sections (filtfilt edges carry transients).
  const auto mid_rms = [](const Signal& s) {
    return rms(std::span<const double>(s.data() + 1200, 2400));
  };
  EXPECT_GT(mid_rms(in_f), 0.6);
  EXPECT_LT(mid_rms(out_f), 1e-4);
}

TEST(Butterworth, OddOrderBandpassHandlesRealPole) {
  // Order 3 exercises the real-prototype-pole branch of the transform.
  const SosCascade f = butterworth_bandpass(3, 1000.0, 4000.0, kFs);
  EXPECT_TRUE(f.is_stable());
  EXPECT_NEAR(f.magnitude_at(2000.0, kFs), 1.0, 0.05);
  EXPECT_LT(f.magnitude_at(100.0, kFs), 1e-3);
}

TEST(Butterworth, NarrowBandpassRemainsStable) {
  const SosCascade f = butterworth_bandpass(2, 2400.0, 2600.0, kFs);
  EXPECT_TRUE(f.is_stable());
  EXPECT_NEAR(f.magnitude_at(2500.0, kFs), 1.0, 0.01);
}

}  // namespace
}  // namespace echoimage::dsp
