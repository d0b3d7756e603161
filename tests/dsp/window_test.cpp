#include "dsp/window.hpp"

#include <gtest/gtest.h>

namespace echoimage::dsp {
namespace {

class WindowTypeTest : public ::testing::TestWithParam<WindowType> {};

TEST_P(WindowTypeTest, ZeroOutsideUnitInterval) {
  EXPECT_DOUBLE_EQ(window_value(GetParam(), -0.1), 0.0);
  EXPECT_DOUBLE_EQ(window_value(GetParam(), 1.1), 0.0);
}

TEST_P(WindowTypeTest, UnityOrLessEverywhere) {
  for (double u = 0.0; u <= 1.0; u += 0.01) {
    const double v = window_value(GetParam(), u);
    EXPECT_GE(v, -1e-12);
    EXPECT_LE(v, 1.0 + 1e-12);
  }
}

TEST_P(WindowTypeTest, SymmetricAboutCenter) {
  for (double u = 0.0; u <= 0.5; u += 0.05) {
    EXPECT_NEAR(window_value(GetParam(), u),
                window_value(GetParam(), 1.0 - u), 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, WindowTypeTest,
                         ::testing::Values(WindowType::kRectangular,
                                           WindowType::kHann,
                                           WindowType::kHamming,
                                           WindowType::kBlackman,
                                           WindowType::kTukey));

TEST(Window, RectangularIsAllOnes) {
  for (double u = 0.0; u <= 1.0; u += 0.125)
    EXPECT_DOUBLE_EQ(window_value(WindowType::kRectangular, u), 1.0);
}

TEST(Window, HannPeaksAtCenterAndVanishesAtEdges) {
  EXPECT_NEAR(window_value(WindowType::kHann, 0.5), 1.0, 1e-12);
  EXPECT_NEAR(window_value(WindowType::kHann, 0.0), 0.0, 1e-12);
  EXPECT_NEAR(window_value(WindowType::kHann, 1.0), 0.0, 1e-12);
}

TEST(Window, HammingEdgesAreNonZero) {
  EXPECT_NEAR(window_value(WindowType::kHamming, 0.0), 0.08, 1e-12);
}

TEST(Window, TukeyZeroAlphaIsRectangular) {
  for (double u = 0.0; u <= 1.0; u += 0.1)
    EXPECT_DOUBLE_EQ(window_value(WindowType::kTukey, u, 0.0), 1.0);
}

TEST(Window, TukeyFullAlphaIsHann) {
  for (double u = 0.0; u <= 1.0; u += 0.05)
    EXPECT_NEAR(window_value(WindowType::kTukey, u, 1.0),
                window_value(WindowType::kHann, u), 1e-12);
}

TEST(Window, TukeyFlatTopInMiddle) {
  EXPECT_DOUBLE_EQ(window_value(WindowType::kTukey, 0.5, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(window_value(WindowType::kTukey, 0.3, 0.5), 1.0);
}

}  // namespace
}  // namespace echoimage::dsp
