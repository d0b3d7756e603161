// Matched filtering against the probing chirp (paper Eq. 9).
//
// C_l(t) = (r_l * h)(t) with h(t) = s*(-t): correlating the received signal
// with the known beep compresses each echo into a sharp peak whose position
// encodes its round-trip delay.
//
// Every overload runs one implementation: the spectrum overload of
// `matched_filter_complex`. Callers that correlate many signals of one
// length against one template (the imager: every channel of every beep of
// a capture) compute `template_spectrum` once and pass it in; the template
// overloads compute it per call. Both give the same bits.
#pragma once

#include <cstddef>

#include "dsp/signal.hpp"

namespace echoimage::dsp {

/// FFT length at which a signal of `received_length` samples is correlated
/// with a template of `template_length` samples: the next power of two
/// holding the full linear correlation.
[[nodiscard]] std::size_t matched_filter_fft_length(
    std::size_t received_length, std::size_t template_length);

/// Spectrum of `tmpl` zero-padded to `fft_length` (a power of two no
/// shorter than the template).
[[nodiscard]] ComplexSignal template_spectrum(std::span<const Sample> tmpl,
                                              std::size_t fft_length);

/// Complex matched-filter output of an analytic signal (the compressed
/// pulse train) against a precomputed template spectrum, which must come
/// from `template_spectrum` at `matched_filter_fft_length(received.size(),
/// template length)`. Index i corresponds to an echo whose onset is at
/// sample i of `received`; the output length equals `received.size()`.
/// Beamforming weights can be applied to the compressed channels directly —
/// correlation and beamforming are both linear and time-invariant, so the
/// order is interchangeable.
[[nodiscard]] ComplexSignal matched_filter_complex(
    const ComplexSignal& received, std::span<const Complex> spectrum);

/// The same against a real template.
[[nodiscard]] ComplexSignal matched_filter_complex(
    const ComplexSignal& received, std::span<const Sample> tmpl);

/// Matched-filter output of a real signal (the real part of the complex
/// output). Output length equals `received.size()`.
[[nodiscard]] Signal matched_filter(std::span<const Sample> received,
                                    std::span<const Sample> tmpl);

/// Matched filter of a complex (analytic) signal against a real template;
/// returns |output| which is already an envelope, avoiding a second Hilbert
/// pass. Output length equals `received.size()`.
[[nodiscard]] Signal matched_filter_envelope(const ComplexSignal& received,
                                             std::span<const Sample> tmpl);

}  // namespace echoimage::dsp
