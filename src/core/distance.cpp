#include "core/distance.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/butterworth.hpp"
#include "dsp/hilbert.hpp"
#include "dsp/matched_filter.hpp"

namespace echoimage::core {

using echoimage::dsp::Complex;
using echoimage::dsp::ComplexSignal;

DistanceEstimator::DistanceEstimator(DistanceEstimatorConfig config,
                                     ArrayGeometry geometry)
    : config_(std::move(config)),
      geometry_(std::move(geometry)),
      bandpass_filter_(echoimage::dsp::butterworth_bandpass(
          config_.bandpass_order, config_.bandpass_low_hz,
          config_.bandpass_high_hz, config_.sample_rate)),
      chirp_template_(
          echoimage::dsp::Chirp(config_.chirp).sample(config_.sample_rate)) {
  if (config_.mode == SteeringMode::kSingleMic &&
      config_.single_mic_index >= geometry_.num_mics())
    throw std::invalid_argument("DistanceEstimator: bad single_mic_index");
}

MultiChannelSignal DistanceEstimator::bandpass(
    const MultiChannelSignal& capture) const {
  // Lockstepped across channels, bit-identical to per-channel filtfilt.
  MultiChannelSignal out;
  out.channels = bandpass_filter_.filtfilt_multi(capture.channels);
  return out;
}

std::vector<Complex> DistanceEstimator::look_weights(
    const MultiChannelSignal& noise_only,
    const echoimage::array::ChannelMask& active_mask) const {
  // The paper's rho_n from the separate noise-only capture when provided;
  // spatially white otherwise. Full-size — the solver reduces it to the
  // masked subarray.
  const std::size_t mics = geometry_.num_mics();
  const echoimage::array::WeightSolver solver(
      geometry_,
      noise_only.num_channels() == mics && noise_only.length() > 0
          ? echoimage::array::noise_covariance_of(bandpass(noise_only))
          : echoimage::array::white_noise_covariance(mics),
      config_.chirp.center_frequency(), config_.speed_of_sound, active_mask);
  std::vector<Complex> steering, weights;
  solver.compute_weights(config_.steer, config_.mode == SteeringMode::kMvdr,
                         steering, weights);
  return weights;
}

Signal DistanceEstimator::beep_envelope(
    const MultiChannelSignal& beep, const std::vector<Complex>& weights,
    const echoimage::array::ChannelMask& active_mask) const {
  const MultiChannelSignal filtered = bandpass(beep);

  ComplexSignal steered;
  if (config_.mode == SteeringMode::kSingleMic) {
    // When the configured microphone itself is masked out, fall back to
    // the first surviving one rather than listening to a dead channel.
    std::size_t mic = config_.single_mic_index;
    if (!active_mask.empty() && !active_mask[mic]) {
      mic = 0;
      while (mic < active_mask.size() && !active_mask[mic]) ++mic;
      if (mic >= filtered.num_channels())
        throw std::invalid_argument(
            "DistanceEstimator: mask leaves no channel");
    }
    steered = echoimage::dsp::analytic_signal(filtered.channels[mic]);
  } else {
    if (filtered.num_channels() != geometry_.num_mics())
      throw std::invalid_argument("DistanceEstimator: channel/mic mismatch");
    if (!filtered.is_rectangular())
      throw std::invalid_argument(
          "DistanceEstimator: ragged multichannel capture");
    std::vector<ComplexSignal> analytic;
    analytic.reserve(weights.size());
    for (std::size_t c = 0; c < filtered.num_channels(); ++c)
      if (active_mask.empty() || active_mask[c])
        analytic.push_back(
            echoimage::dsp::analytic_signal(filtered.channels[c]));
    steered = echoimage::array::apply_weights(analytic, weights);
  }

  Signal env = echoimage::dsp::matched_filter_envelope(steered,
                                                       chirp_template_);
  return echoimage::dsp::moving_average(env, config_.envelope_smooth_samples);
}

void DistanceEstimator::attach_observability(
    std::shared_ptr<const obs::Observability> obs) {
  obs_ = std::move(obs);
  valid_counter_ = nullptr;
  invalid_counter_ = nullptr;
  distance_hist_ = nullptr;
  if (obs_ == nullptr) return;
  valid_counter_ = &obs_->metrics().counter("distance.valid");
  invalid_counter_ = &obs_->metrics().counter("distance.invalid");
  // Estimated user distance in meters; observations are deterministic for
  // a seeded scenario, so the histogram is part of the golden report.
  distance_hist_ = &obs_->metrics().histogram(
      "distance.user_distance_m", {0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0});
}

DistanceEstimate DistanceEstimator::estimate(
    const std::vector<MultiChannelSignal>& beeps,
    const MultiChannelSignal& noise_only,
    const echoimage::array::ChannelMask& active_mask) const {
  EI_SPAN(obs::Observability::tracer_of(obs_.get()), "distance.estimate");
  const DistanceEstimate out = estimate_impl(beeps, noise_only, active_mask);
  if (out.valid) {
    if (valid_counter_ != nullptr) valid_counter_->add();
    if (distance_hist_ != nullptr) distance_hist_->observe(out.user_distance_m);
  } else if (invalid_counter_ != nullptr) {
    invalid_counter_->add();
  }
  return out;
}

DistanceEstimate DistanceEstimator::estimate_impl(
    const std::vector<MultiChannelSignal>& beeps,
    const MultiChannelSignal& noise_only,
    const echoimage::array::ChannelMask& active_mask) const {
  if (beeps.empty())
    throw std::invalid_argument("DistanceEstimator: no beeps");

  DistanceEstimate out;
  // The look direction is fixed and the noise belongs to the capture, not
  // the beep: the weights are solved once.
  const std::vector<Complex> weights =
      config_.mode == SteeringMode::kSingleMic
          ? std::vector<Complex>{}
          : look_weights(noise_only, active_mask);
  // E(t) = (1/L) sum_l |E_l(t)|^2 (Eq. 10).
  Signal e;
  for (const MultiChannelSignal& beep : beeps) {
    const Signal el = beep_envelope(beep, weights, active_mask);
    if (e.empty()) e.assign(el.size(), 0.0);
    for (std::size_t i = 0; i < std::min(e.size(), el.size()); ++i)
      e[i] += el[i] * el[i];
  }
  const double inv_l = 1.0 / static_cast<double>(beeps.size());
  for (double& v : e) v *= inv_l;
  out.averaged_envelope = e;

  const std::size_t min_sep = std::max<std::size_t>(
      1, echoimage::dsp::seconds_to_samples(config_.peak_min_separation_s,
                                            config_.sample_rate));

  // tau_1: the maximum of E(t) within the first millisecond — the direct
  // speaker->mic sound arrives within centimeters of flight, so searching
  // only there keeps a strong body echo from being mistaken for it (paper:
  // "the first local maximum point tau_1 ... corresponds to the chirp
  // signal traveled directly from the speaker").
  const std::size_t direct_end_search = std::min(
      e.size(), std::max<std::size_t>(1, echoimage::dsp::seconds_to_samples(
                                             config_.direct_search_window_s,
                                             config_.sample_rate)));
  std::size_t tau1 = 0;
  for (std::size_t i = 1; i < direct_end_search; ++i)
    if (e[i] > e[tau1]) tau1 = i;
  out.tau_direct_s =
      echoimage::dsp::samples_to_seconds(tau1, config_.sample_rate);

  // Chirp period: config_.chirp_period_s after tau_1; echo period: the next
  // echo_period_s. Peaks are thresholded relative to the echo window's own
  // maximum (the direct path would otherwise mask every echo).
  const std::size_t chirp_end =
      tau1 + echoimage::dsp::seconds_to_samples(
                 config_.chirp_period_s + config_.echo_guard_s,
                 config_.sample_rate);
  const std::size_t echo_end = std::min(
      e.size(),
      chirp_end + echoimage::dsp::seconds_to_samples(config_.echo_period_s,
                                                     config_.sample_rate));
  if (chirp_end >= e.size()) return out;
  const Signal window = echoimage::dsp::moving_average(
      std::span<const double>(e.data() + chirp_end, echo_end - chirp_end),
      config_.echo_window_smooth_samples);
  std::vector<echoimage::dsp::Peak> window_peaks =
      echoimage::dsp::find_peaks_relative(window, min_sep,
                                          config_.peak_relative_threshold);
  out.peaks.push_back(echoimage::dsp::Peak{tau1, e[tau1]});
  const std::size_t edge_guard = echoimage::dsp::seconds_to_samples(
      0.0004, config_.sample_rate);
  for (echoimage::dsp::Peak& p : window_peaks) {
    // A "peak" hugging the window edge is the decaying direct-path skirt
    // (E is even higher just before the window), not a local maximum.
    if (p.index < edge_guard) continue;
    p.index += chirp_end;
    out.peaks.push_back(p);
  }
  const echoimage::dsp::Peak echo =
      echoimage::dsp::largest_peak_in_range(out.peaks, chirp_end, echo_end);
  if (echo.index == static_cast<std::size_t>(-1)) return out;

  // Reject spurious detections: the echo must stand clear of the noise
  // floor, estimated as the median of the *tail half* of the window (the
  // head may contain the body echo itself).
  Signal sorted(window.begin() + static_cast<std::ptrdiff_t>(window.size() / 2),
                window.end());
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  const double floor = sorted[sorted.size() / 2];
  if (floor > 0.0 && echo.value < config_.min_peak_prominence * floor)
    return out;

  out.tau_echo_s =
      echoimage::dsp::samples_to_seconds(echo.index, config_.sample_rate);
  const double rel = out.tau_echo_s - out.tau_direct_s;
  out.slant_distance_m = rel * config_.speed_of_sound.value() / 2.0;
  const double projection =
      std::sin(config_.steer.phi) * std::sin(config_.steer.theta);
  out.user_distance_m = out.slant_distance_m * projection;

  // Local energy centroid around the detected body peak (floor-subtracted):
  // smoother than the raw peak yet not pulled toward other echoes in the
  // window; used as the imaging anchor.
  const std::size_t local_halfwidth = echoimage::dsp::seconds_to_samples(
      0.0012, config_.sample_rate);
  const std::size_t local_lo =
      echo.index > chirp_end + local_halfwidth
          ? echo.index - local_halfwidth - chirp_end
          : 0;
  const std::size_t local_hi = std::min(
      window.size(), echo.index + local_halfwidth + 1 - chirp_end);
  double wsum = 0.0, tsum = 0.0;
  for (std::size_t i = local_lo; i < local_hi; ++i) {
    const double w = std::max(0.0, window[i] - floor);
    wsum += w;
    tsum += w * static_cast<double>(chirp_end + i);
  }
  if (wsum > 0.0) {
    out.tau_echo_centroid_s = echoimage::dsp::samples_to_seconds(
        static_cast<std::size_t>(tsum / wsum), config_.sample_rate);
    out.user_distance_centroid_m =
        (out.tau_echo_centroid_s - out.tau_direct_s) *
        config_.speed_of_sound.value() / 2.0 * projection;
  } else {
    out.tau_echo_centroid_s = out.tau_echo_s;
    out.user_distance_centroid_m = out.user_distance_m;
  }

  out.valid = out.slant_distance_m > 0.0;
  return out;
}

}  // namespace echoimage::core
