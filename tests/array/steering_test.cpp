#include "array/steering.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

namespace echoimage::array {
namespace {

using namespace echoimage::units::literals;

constexpr double kPi = std::numbers::pi;

TEST(Direction, LineOfSightRoundTrip) {
  // The spherical angles of a point (paper Fig. 1) map back to its unit
  // vector.
  const Vec3 p{0.3, 0.8, 0.5};
  const Direction d{std::atan2(p.y, p.x), std::acos(p.z / p.norm())};
  const Vec3 los = line_of_sight(d);
  const Vec3 unit = p.normalized();
  EXPECT_NEAR(los.x, unit.x, 1e-12);
  EXPECT_NEAR(los.y, unit.y, 1e-12);
  EXPECT_NEAR(los.z, unit.z, 1e-12);
}

TEST(PropagationVector, IsNegatedLineOfSight) {
  const Direction d{0.4, 1.1};
  const Vec3 v = propagation_vector(d);
  const Vec3 los = line_of_sight(d);
  EXPECT_NEAR(v.x, -los.x, 1e-12);
  EXPECT_NEAR(v.y, -los.y, 1e-12);
  EXPECT_NEAR(v.z, -los.z, 1e-12);
  EXPECT_NEAR(v.norm(), 1.0, 1e-12);  // Eq. 5 is a unit vector
}

TEST(Tdoa, MicTowardSourceHearsFirst) {
  const ArrayGeometry g = make_respeaker_array();
  // Source along +x (theta = 0, phi = pi/2): mic 0 sits at (+0.05, 0, 0).
  const Direction d{0.0, kPi / 2.0};
  const units::Seconds t0 = tdoa(g, d, 0);
  EXPECT_LT(t0.value(), 0.0);  // closer mic receives earlier than the origin
  EXPECT_NEAR(t0.value(), -0.05 / kSpeedOfSound, 1e-12);
}

TEST(Tdoa, OppositeMicsHaveOppositeDelays) {
  const ArrayGeometry g = make_respeaker_array();
  const Direction d{0.0, kPi / 2.0};
  // Mics 0 and 3 are diametrically opposite on the 6-mic circle.
  EXPECT_NEAR(tdoa(g, d, 0).value(), -tdoa(g, d, 3).value(), 1e-15);
}

TEST(Tdoa, BroadsideSourceGivesZeroDelays) {
  // A wave from +z (phi = 0) reaches every mic of the planar array at once.
  const ArrayGeometry g = make_respeaker_array();
  const auto taus = tdoas(g, Direction{0.7, 0.0});
  for (const double t : taus) EXPECT_NEAR(t, 0.0, 1e-15);
}

TEST(Tdoa, BoundedByAperture) {
  const ArrayGeometry g = make_respeaker_array();
  const double max_tau = g.aperture() / kSpeedOfSound;
  for (double theta = 0.0; theta < 2.0 * kPi; theta += 0.37) {
    for (double phi = 0.1; phi < kPi; phi += 0.31) {
      const auto taus = tdoas(g, Direction{theta, phi});
      for (const double t : taus) EXPECT_LE(std::abs(t), max_tau + 1e-12);
    }
  }
}

TEST(SteeringVector, UnitModulusEntries) {
  const ArrayGeometry g = make_respeaker_array();
  const auto a = steering_vector_hz(g, Direction{1.0, 1.2}, 2500.0_hz);
  ASSERT_EQ(a.size(), 6u);
  for (const Complex& c : a) EXPECT_NEAR(std::abs(c), 1.0, 1e-12);
}

TEST(SteeringVector, PhaseMatchesTdoa) {
  // a_m = exp(-j omega tau_m) (paper Eq. 7/8).
  const ArrayGeometry g = make_respeaker_array();
  const Direction d{0.9, 1.3};
  const double f = 2500.0;
  const auto a = steering_vector_hz(g, d, units::Hertz{f});
  const auto taus = tdoas(g, d);
  for (std::size_t m = 0; m < 6; ++m) {
    const Complex expected =
        std::polar(1.0, -2.0 * kPi * f * taus[m]);
    EXPECT_NEAR(std::abs(a[m] - expected), 0.0, 1e-10);
  }
}

TEST(SteeringVector, ZenithIsAllOnes) {
  const ArrayGeometry g = make_respeaker_array();
  const auto a = steering_vector_hz(g, Direction{0.0, 0.0}, 2500.0_hz);
  for (const Complex& c : a) EXPECT_NEAR(std::abs(c - 1.0), 0.0, 1e-12);
}

TEST(SteeringVector, FrequencyScalesPhase) {
  const ArrayGeometry g = make_respeaker_array();
  const Direction d{0.0, kPi / 2.0};
  const auto a1 = steering_vector_hz(g, d, 1000.0_hz);
  const auto a2 = steering_vector_hz(g, d, 2000.0_hz);
  for (std::size_t m = 0; m < 6; ++m) {
    const double p1 = std::arg(a1[m]);
    // Doubling frequency doubles phase (mod 2 pi).
    const Complex expected = std::polar(1.0, 2.0 * p1);
    EXPECT_NEAR(std::abs(a2[m] - expected), 0.0, 1e-10);
  }
}

}  // namespace
}  // namespace echoimage::array
