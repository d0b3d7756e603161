// Far-field steering model (paper Eq. 5-7).
//
// A plane wave arriving from incident angle Omega = {theta, phi} (azimuth,
// elevation) propagates along v(Omega); each microphone sees the source with
// a TDOA tau_m relative to the array origin, equivalently a narrowband phase
// shift -k^T(Omega) p_m. The steering vector stacks those phases.
#pragma once

#include <vector>

#include "array/geometry.hpp"
#include "dsp/signal.hpp"

namespace echoimage::array {

using Complex = echoimage::dsp::Complex;

/// Incident direction: azimuth theta (from +x toward +y) and elevation phi
/// (from +z), both radians — the spherical convention of paper Fig. 1.
struct Direction {
  double theta = 0.0;
  double phi = 0.0;
};

/// Unit vector from the origin toward direction Omega (the line of sight).
[[nodiscard]] Vec3 line_of_sight(const Direction& dir);

/// Sound propagation vector v(Omega) = -[sin phi cos theta, sin phi sin
/// theta, cos phi]^T (paper Eq. 5) — points from the source toward the array.
[[nodiscard]] Vec3 propagation_vector(const Direction& dir);

/// TDOA of microphone m relative to the origin: tau_m = v^T(Omega) p_m / c
/// (positive = arrives later than the origin). For a plane wave with
/// propagation direction v the field is s(t - (p . v)/c), so a microphone
/// on the source side (p . v < 0) hears the wavefront early. Note the
/// paper's Eq. 6 carries the opposite sign; combined with its Eq. 7/8 the
/// two sign flips cancel, and this library uses the physically anchored
/// convention throughout (validated against the renderer in the tests).
[[nodiscard]] units::Seconds tdoa(
    const ArrayGeometry& geom, const Direction& dir, std::size_t mic,
    units::MetersPerSecond speed_of_sound = kSpeedOfSoundMps);

/// All M TDOAs, as raw seconds (the beamformers' hot-path input).
[[nodiscard]] std::vector<double> tdoas(
    const ArrayGeometry& geom, const Direction& dir,
    units::MetersPerSecond speed_of_sound = kSpeedOfSoundMps);

/// Narrowband steering vector at angular frequency omega — rad/s, a raw
/// double by design: omega only exists inside phase math (paper Eq. 8's
/// p_s): a_m = exp(-j omega tau_m) = exp(-j k^T(Omega) p_m), the phase
/// signature conjugate to what a unit plane wave from Omega leaves on the
/// array, so w ~ a aligns the channels.
[[nodiscard]] std::vector<Complex> steering_vector(
    const ArrayGeometry& geom, const Direction& dir, double omega,
    units::MetersPerSecond speed_of_sound = kSpeedOfSoundMps);

/// Steering vector at acoustic frequency `freq` (omega = 2 pi f).
[[nodiscard]] std::vector<Complex> steering_vector_hz(
    const ArrayGeometry& geom, const Direction& dir, units::Hertz freq,
    units::MetersPerSecond speed_of_sound = kSpeedOfSoundMps);

/// Allocation-reusing variant for hot loops: the steering vector written
/// into `out` (resized to fit). Bit-identical to `steering_vector`.
void steering_vector_into(const ArrayGeometry& geom, const Direction& dir,
                          double omega, units::MetersPerSecond speed_of_sound,
                          std::vector<Complex>& out);

}  // namespace echoimage::array
