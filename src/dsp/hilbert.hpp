// Analytic signal and envelope detection.
//
// The distance estimator (paper Sec. V-B) detects echo onsets from the
// envelope E_l(t) of the matched-filter output; the narrowband beamformer
// engine operates on the analytic (complex) signal so steering phase shifts
// can be applied directly.
#pragma once

#include <cstddef>

#include "dsp/signal.hpp"

namespace echoimage::dsp {

/// Analytic signal via the FFT method: X_a = x + j*H{x}. The transform pads
/// to a power of two internally and truncates back, so arbitrary lengths are
/// accepted.
[[nodiscard]] ComplexSignal analytic_signal(std::span<const Sample> x);

/// Instantaneous amplitude |analytic_signal(x)|.
[[nodiscard]] Signal envelope(std::span<const Sample> x);

/// Centered moving average with reflected edges (even lengths are rounded
/// up to odd, which keeps the delay at zero).
[[nodiscard]] Signal moving_average(std::span<const Sample> x,
                                    std::size_t len);

}  // namespace echoimage::dsp
