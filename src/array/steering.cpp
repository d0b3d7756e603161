#include "array/steering.hpp"

#include <cmath>
#include <numbers>

namespace echoimage::array {

Vec3 line_of_sight(const Direction& dir) {
  const double sp = std::sin(dir.phi);
  return Vec3{sp * std::cos(dir.theta), sp * std::sin(dir.theta),
              std::cos(dir.phi)};
}

Vec3 propagation_vector(const Direction& dir) {
  return line_of_sight(dir) * -1.0;
}

units::Seconds tdoa(const ArrayGeometry& geom, const Direction& dir,
                    std::size_t mic, units::MetersPerSecond speed_of_sound) {
  const Vec3 v = propagation_vector(dir);
  // Meters / MetersPerSecond -> Seconds; the same double division as ever.
  return units::Meters{v.dot(geom.mic(mic))} / speed_of_sound;
}

std::vector<double> tdoas(const ArrayGeometry& geom, const Direction& dir,
                          units::MetersPerSecond speed_of_sound) {
  std::vector<double> out(geom.num_mics());
  const Vec3 v = propagation_vector(dir);
  const double c = speed_of_sound.value();
  for (std::size_t m = 0; m < geom.num_mics(); ++m)
    out[m] = v.dot(geom.mic(m)) / c;
  return out;
}

std::vector<Complex> steering_vector(const ArrayGeometry& geom,
                                     const Direction& dir, double omega,
                                     units::MetersPerSecond speed_of_sound) {
  std::vector<Complex> a(geom.num_mics());
  const Vec3 v = propagation_vector(dir);
  const double c = speed_of_sound.value();
  for (std::size_t m = 0; m < geom.num_mics(); ++m) {
    // a_m = exp(-j k^T p_m) with k = (omega / c) v(Omega): conjugate of
    // the arriving wave's phase so that w ~ a aligns the channels.
    const double phase = -(omega / c) * v.dot(geom.mic(m));
    a[m] = std::polar(1.0, phase);
  }
  return a;
}

std::vector<Complex> steering_vector_hz(const ArrayGeometry& geom,
                                        const Direction& dir, units::Hertz freq,
                                        units::MetersPerSecond speed_of_sound) {
  return steering_vector(geom, dir, 2.0 * std::numbers::pi * freq.value(),
                         speed_of_sound);
}

void steering_vector_into(const ArrayGeometry& geom, const Direction& dir,
                          double omega, units::MetersPerSecond speed_of_sound,
                          std::vector<Complex>& out) {
  out.resize(geom.num_mics());
  const Vec3 v = propagation_vector(dir);
  const double c = speed_of_sound.value();
  for (std::size_t m = 0; m < geom.num_mics(); ++m) {
    const double phase = -(omega / c) * v.dot(geom.mic(m));
    out[m] = std::polar(1.0, phase);
  }
}

}  // namespace echoimage::array
