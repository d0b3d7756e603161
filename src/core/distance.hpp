// User-array distance estimation (paper Sec. V-B).
//
// Pipeline per the paper: band-pass the capture to the probing band, steer
// the array's look direction to an arbitrary region of the user's upper
// body with MVDR beamforming, matched-filter the beamformed signal against
// the chirp, take the envelope E_l(t) per beep, average |E_l|^2 over L
// beeps (Eq. 10), then locate the direct-path peak tau_1 and the largest
// echo-period peak tau_w'. The slant distance is D_f = (tau_w' - tau_1)*c/2
// and the user-array distance D_p = D_f sin(phi) sin(theta).
#pragma once

#include <cstddef>
#include <memory>
#include <numbers>
#include <vector>

#include "array/beamformer.hpp"
#include "dsp/biquad.hpp"
#include "dsp/chirp.hpp"
#include "dsp/peaks.hpp"
#include "dsp/signal.hpp"
#include "obs/observability.hpp"

namespace echoimage::core {

namespace units = echoimage::units;
using echoimage::array::ArrayGeometry;
using echoimage::array::Direction;
using echoimage::dsp::MultiChannelSignal;
using echoimage::dsp::Signal;

/// Which spatial front-end feeds the matched filter — the paper's MVDR, the
/// delay-and-sum baseline, or a single microphone (the naive scheme the
/// paper argues against).
enum class SteeringMode { kMvdr, kDelayAndSum, kSingleMic };

struct DistanceEstimatorConfig {
  double sample_rate = 48000.0;
  echoimage::dsp::ChirpParams chirp{};  ///< must match the emitted beep
  double bandpass_low_hz = 2000.0;
  double bandpass_high_hz = 3000.0;
  std::size_t bandpass_order = 4;
  /// Steered look direction: theta = pi/2 (straight ahead), phi in
  /// [pi/3, 2pi/3] hits the upper body across heights (paper Sec. V-B).
  /// Default 1.2 rad (~69 degrees from zenith) targets the chest region for
  /// an array mounted at ~1.2 m.
  Direction steer{std::numbers::pi / 2.0, 1.2};
  double chirp_period_s = 0.002;  ///< direct-sound window after tau_1
  /// The direct speaker->mic sound must arrive within this window of the
  /// emission (speaker-to-mic flight is centimeters); tau_1 is searched
  /// only here so a strong body echo can never be mistaken for it.
  double direct_search_window_s = 0.001;
  double echo_period_s = 0.010;   ///< echo search window after chirp period
  /// Guard between the chirp period and the echo window: the matched
  /// filter's direct-path skirt decays over ~0.5 ms and must not be
  /// mistaken for a body echo.
  double echo_guard_s = 0.0005;
  double peak_min_separation_s = 0.001;  ///< local-max dominance radius d
  double peak_relative_threshold = 0.02;  ///< th as a fraction of max E(t)
  /// An echo peak must exceed this multiple of the echo window's median
  /// energy, otherwise the estimate is reported invalid (no user in range).
  double min_peak_prominence = 10.0;
  std::size_t envelope_smooth_samples = 9;
  /// Extra smoothing applied to the echo search window only (merges the
  /// body's sub-peaks into one stable hump; must not touch the direct
  /// path, whose smeared skirt would otherwise flood the window).
  std::size_t echo_window_smooth_samples = 65;
  SteeringMode mode = SteeringMode::kMvdr;
  std::size_t single_mic_index = 0;  ///< used when mode == kSingleMic
  units::MetersPerSecond speed_of_sound = echoimage::array::kSpeedOfSoundMps;
};

struct DistanceEstimate {
  bool valid = false;          ///< false when no echo peak was found
  double tau_direct_s = 0.0;   ///< tau_1: direct-path arrival
  double tau_echo_s = 0.0;     ///< tau_w': body echo arrival
  double slant_distance_m = 0.0;  ///< D_f
  double user_distance_m = 0.0;   ///< D_p
  /// Energy centroid of the echo window — a smoother anchor than the peak;
  /// the imager gates relative to it so that any constant detection bias
  /// cancels out of the image (see ImagingConfig::anchor_to_echo).
  double tau_echo_centroid_s = 0.0;
  double user_distance_centroid_m = 0.0;  ///< D_p derived from the centroid
  Signal averaged_envelope;    ///< E(t) of Eq. 10 (kept for plots/benches)
  std::vector<echoimage::dsp::Peak> peaks;  ///< the MaxSet
};

class DistanceEstimator {
 public:
  DistanceEstimator(DistanceEstimatorConfig config, ArrayGeometry geometry);

  [[nodiscard]] const DistanceEstimatorConfig& config() const {
    return config_;
  }

  /// Estimate from L beep captures. `noise_only` (optional, may be empty)
  /// provides noise-only samples for the MVDR noise covariance; without it
  /// the spatially-white assumption is used. `active_mask` (empty = all)
  /// restricts beamforming to the healthy subarray — the graceful-
  /// degradation path when the health gate has condemned a channel.
  [[nodiscard]] DistanceEstimate estimate(
      const std::vector<MultiChannelSignal>& beeps,
      const MultiChannelSignal& noise_only = {},
      const echoimage::array::ChannelMask& active_mask = {}) const;

  /// Band-passed copy of a capture, every channel in lockstep: what
  /// `estimate` correlates and takes the noise covariance of.
  [[nodiscard]] MultiChannelSignal bandpass(
      const MultiChannelSignal& capture) const;

  /// Wire into the system observability bundle: estimate spans plus
  /// valid/invalid counters and a distance histogram (all deterministic for
  /// a seeded scenario). Null keeps every site a dead branch.
  void attach_observability(std::shared_ptr<const obs::Observability> obs);

 private:
  /// Weights of the active subarray toward the configured look direction
  /// (MVDR or delay-and-sum), against the noise covariance of the
  /// band-passed `noise_only`, or the spatially-white one when it is empty
  /// or does not match the array.
  [[nodiscard]] std::vector<echoimage::dsp::Complex> look_weights(
      const MultiChannelSignal& noise_only,
      const echoimage::array::ChannelMask& active_mask) const;
  /// Per-beep correlation envelope E_l(t) of the signal steered by the
  /// capture's `weights` (ignored in single-mic mode).
  [[nodiscard]] Signal beep_envelope(
      const MultiChannelSignal& beep,
      const std::vector<echoimage::dsp::Complex>& weights,
      const echoimage::array::ChannelMask& active_mask) const;
  [[nodiscard]] DistanceEstimate estimate_impl(
      const std::vector<MultiChannelSignal>& beeps,
      const MultiChannelSignal& noise_only,
      const echoimage::array::ChannelMask& active_mask) const;

  DistanceEstimatorConfig config_;
  ArrayGeometry geometry_;
  echoimage::dsp::SosCascade bandpass_filter_;
  Signal chirp_template_;
  std::shared_ptr<const obs::Observability> obs_;
  const obs::Counter* valid_counter_ = nullptr;
  const obs::Counter* invalid_counter_ = nullptr;
  const obs::Histogram* distance_hist_ = nullptr;
};

}  // namespace echoimage::core
