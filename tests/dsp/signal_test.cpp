#include "dsp/signal.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace echoimage::dsp {
namespace {

TEST(Signal, EnergyOfKnownSignal) {
  const Signal x{1.0, -2.0, 3.0};
  EXPECT_DOUBLE_EQ(energy(x), 14.0);
}

TEST(Signal, EnergyOfEmptySignalIsZero) {
  EXPECT_DOUBLE_EQ(energy(Signal{}), 0.0);
}

TEST(Signal, RmsOfConstantSignal) {
  const Signal x(100, 2.5);
  EXPECT_NEAR(rms(x), 2.5, 1e-12);
}

TEST(Signal, RmsOfEmptyIsZero) { EXPECT_DOUBLE_EQ(rms(Signal{}), 0.0); }

TEST(Signal, PeakAbsFindsNegativePeak) {
  const Signal x{0.5, -3.0, 2.0};
  EXPECT_DOUBLE_EQ(peak_abs(x), 3.0);
}

TEST(Signal, MeanOfArithmeticSequence) {
  const Signal x{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(x), 2.5);
}

TEST(Signal, DotProduct) {
  const Signal a{1.0, 2.0, 3.0};
  const Signal b{4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
}

TEST(Signal, DotThrowsOnLengthMismatch) {
  const Signal a{1.0};
  const Signal b{1.0, 2.0};
  EXPECT_THROW((void)dot(a, b), std::invalid_argument);
}

TEST(Signal, PearsonPerfectCorrelation) {
  const Signal a{1.0, 2.0, 3.0, 4.0};
  const Signal b{2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(pearson(a, b), 1.0, 1e-12);
}

TEST(Signal, PearsonPerfectAnticorrelation) {
  const Signal a{1.0, 2.0, 3.0};
  const Signal b{3.0, 2.0, 1.0};
  EXPECT_NEAR(pearson(a, b), -1.0, 1e-12);
}

TEST(Signal, PearsonOfConstantIsZero) {
  const Signal a{1.0, 1.0, 1.0};
  const Signal b{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(pearson(a, b), 0.0);
}

TEST(Signal, ScaleInPlace) {
  Signal x{1.0, -2.0};
  scale_in_place(x, 3.0);
  EXPECT_DOUBLE_EQ(x[0], 3.0);
  EXPECT_DOUBLE_EQ(x[1], -6.0);
}

TEST(Signal, AddInPlaceWithShorterAddend) {
  Signal a{1.0, 1.0, 1.0};
  const Signal b{2.0, 3.0};
  add_in_place(a, b);
  EXPECT_DOUBLE_EQ(a[0], 3.0);
  EXPECT_DOUBLE_EQ(a[1], 4.0);
  EXPECT_DOUBLE_EQ(a[2], 1.0);
}

TEST(Signal, SecondsSamplesRoundTrip) {
  const double fs = 48000.0;
  EXPECT_EQ(seconds_to_samples(0.002, fs), 96u);
  EXPECT_NEAR(samples_to_seconds(96, fs), 0.002, 1e-12);
}

TEST(Signal, SecondsToSamplesClampsNegative) {
  EXPECT_EQ(seconds_to_samples(-0.5, 48000.0), 0u);
}

TEST(MultiChannelSignal, RectangularDetection) {
  MultiChannelSignal m;
  m.channels = {Signal(10), Signal(10)};
  EXPECT_TRUE(m.is_rectangular());
  EXPECT_EQ(m.num_channels(), 2u);
  EXPECT_EQ(m.length(), 10u);
  m.channels.push_back(Signal(5));
  EXPECT_FALSE(m.is_rectangular());
}

TEST(MultiChannelSignal, EmptyIsRectangular) {
  MultiChannelSignal m;
  EXPECT_TRUE(m.is_rectangular());
  EXPECT_EQ(m.length(), 0u);
}

}  // namespace
}  // namespace echoimage::dsp
