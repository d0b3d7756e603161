// Butterworth filter design (analog prototype -> frequency transform ->
// bilinear transform -> second-order sections).
//
// EchoImage's front end is an order-4 Butterworth band-pass at 2–3 kHz
// (paper Sec. V-B); low-pass designs are used for envelope smoothing.
#pragma once

#include <cstddef>

#include "dsp/biquad.hpp"

namespace echoimage::dsp {

/// Band-pass Butterworth design. `order` is the prototype (per-edge) order,
/// so the digital filter has 2*order poles. Throws std::invalid_argument on
/// inconsistent edges or frequencies beyond Nyquist.
[[nodiscard]] SosCascade butterworth_bandpass(std::size_t order,
                                              double low_hz, double high_hz,
                                              double sample_rate);

/// Low-pass Butterworth design of the given order.
[[nodiscard]] SosCascade butterworth_lowpass(std::size_t order,
                                             double cutoff_hz,
                                             double sample_rate);

}  // namespace echoimage::dsp
