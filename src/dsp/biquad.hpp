// Second-order IIR sections and cascades.
//
// The EchoImage front-end band-passes every capture to the 2–3 kHz probing
// band (paper Sec. V-B) before beamforming. Filters are expressed as
// cascades of biquads (second-order sections) for numerical robustness.
#pragma once

#include <cstddef>
#include <vector>

#include "dsp/signal.hpp"

namespace echoimage::dsp {

/// One direct-form-II-transposed second-order section:
///   y[n] = b0 x[n] + b1 x[n-1] + b2 x[n-2] - a1 y[n-1] - a2 y[n-2]
/// (a0 normalized to 1).
struct BiquadSection {
  double b0 = 1.0, b1 = 0.0, b2 = 0.0;
  double a1 = 0.0, a2 = 0.0;

  /// Complex frequency response at normalized angular frequency w
  /// (radians/sample).
  [[nodiscard]] Complex response(double w) const;

  /// True when both poles lie strictly inside the unit circle.
  [[nodiscard]] bool is_stable() const;
};

/// Cascade of biquad sections with an overall gain.
class SosCascade {
 public:
  SosCascade() = default;
  explicit SosCascade(std::vector<BiquadSection> sections, double gain = 1.0);

  [[nodiscard]] const std::vector<BiquadSection>& sections() const {
    return sections_;
  }
  [[nodiscard]] double gain() const { return gain_; }
  void set_gain(double g) { gain_ = g; }
  [[nodiscard]] bool is_stable() const;

  /// Complex frequency response at normalized angular frequency w.
  [[nodiscard]] Complex response(double w) const;

  /// Magnitude response at `freq_hz` given `sample_rate`.
  [[nodiscard]] double magnitude_at(double freq_hz, double sample_rate) const;

  /// Causal filtering with zero initial state.
  [[nodiscard]] Signal filter(std::span<const Sample> x) const;

  /// Zero-phase filtering (forward + time-reversed pass) with odd-reflection
  /// edge padding; squares the magnitude response and cancels phase, which
  /// keeps matched-filter peak positions honest.
  [[nodiscard]] Signal filtfilt(std::span<const Sample> x) const;

  /// Lockstep multi-channel filtfilt(): the odd-extended channels are
  /// packed into channel-interleaved frames once, and every equal-length
  /// channel advances through the cascade one frame at a time, vectorized
  /// across channels (simd sos_section kernel), forward, then backward
  /// over the frames reversed in place; one unpack reverses and trims.
  /// Each channel's DF2T recurrence is independent, so the output is
  /// bit-identical to calling filtfilt() per channel; ragged,
  /// single-channel and empty inputs fall back to exactly that.
  [[nodiscard]] std::vector<Signal> filtfilt_multi(
      const std::vector<Signal>& x) const;

 private:
  std::vector<BiquadSection> sections_;
  double gain_ = 1.0;
};

}  // namespace echoimage::dsp
