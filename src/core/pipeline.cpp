#include "core/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "runtime/parallel_for.hpp"
#include "simd/isa.hpp"

namespace echoimage::core {

namespace {

const echoimage::array::ChannelMask kNoMask{};  // empty = all channels

bool has_nonfinite(const Signal& ch) {
  for (const double v : ch)
    if (!std::isfinite(v)) return true;
  return false;
}

/// Copy of a capture with the masked-out channels zeroed. Dead channels are
/// excluded from beamforming via the subarray mask, but full-channel paths
/// (band-pass, covariance normalization) still touch every channel — a NaN
/// there would poison shared scale factors, so it must not survive.
MultiChannelSignal silence_masked(const MultiChannelSignal& capture,
                                  const echoimage::array::ChannelMask& mask) {
  MultiChannelSignal out = capture;
  for (std::size_t c = 0; c < out.num_channels() && c < mask.size(); ++c)
    if (!mask[c]) std::fill(out.channels[c].begin(), out.channels[c].end(), 0.0);
  return out;
}

}  // namespace

void SystemConfig::harmonize() {
  // Size registry shards and trace lanes to the worker count that will
  // actually feed them (0 resolves machine-wide, like the pool itself).
  observability.workers = num_threads;
  distance.sample_rate = sample_rate;
  distance.chirp = chirp;
  distance.speed_of_sound = speed_of_sound;
  imaging.sample_rate = sample_rate;
  imaging.chirp = chirp;
  imaging.speed_of_sound = speed_of_sound;
  imaging.num_threads = num_threads;
  imaging.bandpass_low_hz = distance.bandpass_low_hz;
  imaging.bandpass_high_hz = distance.bandpass_high_hz;
  imaging.bandpass_order = distance.bandpass_order;
}

std::string SystemConfig::describe() const {
  std::ostringstream os;
  os << "sample_rate: " << sample_rate << " Hz\n"
     << "speed of sound: " << speed_of_sound.value() << " m/s\n"
     << "threads: " << num_threads << (num_threads == 0 ? " (auto)" : "")
     << "\n"
     << "simd: " << echoimage::simd::isa_name(echoimage::simd::active_isa())
     << "\n"
     << "chirp: " << chirp.f_start.value() << "-" << chirp.f_end.value()
     << " Hz, " << chirp.duration.value() * 1000.0 << " ms\n"
     << "band-pass: " << distance.bandpass_low_hz << "-"
     << distance.bandpass_high_hz << " Hz (order "
     << distance.bandpass_order << ")\n"
     << "imaging: " << imaging.grid_size << "x" << imaging.grid_size
     << " grids of " << imaging.grid_spacing_m * 100.0 << " cm, "
     << imaging.num_subbands << " spectral band(s), gate +/-"
     << imaging.gate_halfwidth_s * 1000.0 << " ms, "
     << (imaging.pulse_compression ? "pulse-compressed" : "raw gate")
     << ", incoherent mix " << imaging.incoherent_mix << ", "
     << (imaging.use_mvdr ? "MVDR" : "delay-and-sum") << "\n"
     << "extractor: " << extractor.input_size << "x" << extractor.input_size
     << " input, " << extractor.block_channels.size() << " conv blocks"
     << (extractor.bypass_network ? " (bypassed: raw pixels)" : "") << "\n"
     << "authenticator: accept_slack " << authenticator.accept_slack
     << ", svdd nu " << authenticator.svdd.nu << ", svm C "
     << authenticator.svm.c << "\n"
     << "augmentation distances: " << augmentation_distances_m.size()
     << " between "
     << (augmentation_distances_m.empty()
             ? 0.0
             : augmentation_distances_m.front())
     << " and "
     << (augmentation_distances_m.empty() ? 0.0
                                          : augmentation_distances_m.back())
     << " m\n";
  return os.str();
}

EchoImagePipeline::EchoImagePipeline(SystemConfig config,
                                     echoimage::array::ArrayGeometry geometry)
    : config_([&] {
        config.harmonize();
        return config;
      }()),
      geometry_(geometry),
      distance_(config_.distance, geometry),
      imager_(config_.imaging, geometry),
      augmenter_(config_.imaging, imager_.pool()),
      extractor_(config_.extractor) {
  obs_ = obs::make_observability(config_.observability);
  if (obs_ == nullptr) return;
  distance_.attach_observability(obs_);
  imager_.attach_observability(obs_);
  captures_counter_ = &obs_->metrics().counter("pipeline.captures");
  gate_failed_counter_ = &obs_->metrics().counter("pipeline.gate_failed");
  gate_degraded_counter_ = &obs_->metrics().counter("pipeline.gate_degraded");
  distance_invalid_counter_ =
      &obs_->metrics().counter("pipeline.distance_invalid");
  dropped_channels_hist_ = &obs_->metrics().histogram(
      "pipeline.dropped_channels", {0.0, 1.0, 2.0, 4.0, 8.0});
}

void EchoImagePipeline::validate_capture(
    const std::vector<MultiChannelSignal>& beeps,
    const MultiChannelSignal& noise_only) const {
  if (beeps.empty())
    throw std::invalid_argument("EchoImagePipeline: no beeps");
  const std::size_t mics = geometry_.num_mics();
  for (std::size_t b = 0; b < beeps.size(); ++b) {
    const MultiChannelSignal& beep = beeps[b];
    if (beep.num_channels() != mics)
      throw std::invalid_argument(
          "EchoImagePipeline: beep " + std::to_string(b) + " has " +
          std::to_string(beep.num_channels()) + " channels, array has " +
          std::to_string(mics) + " mics");
    const std::size_t len = beep.channels.front().size();
    if (len == 0)
      throw std::invalid_argument("EchoImagePipeline: beep " +
                                  std::to_string(b) + " is empty");
    for (std::size_t c = 1; c < beep.num_channels(); ++c)
      if (beep.channels[c].size() != len)
        throw std::invalid_argument(
            "EchoImagePipeline: beep " + std::to_string(b) + " channel " +
            std::to_string(c) + " has " +
            std::to_string(beep.channels[c].size()) + " samples, channel 0 has " +
            std::to_string(len));
  }
  // An empty noise capture means "no noise reference" (spatially-white
  // covariance); a non-empty one must match the array.
  if (noise_only.num_channels() != 0) {
    if (noise_only.num_channels() != mics)
      throw std::invalid_argument(
          "EchoImagePipeline: noise capture has " +
          std::to_string(noise_only.num_channels()) + " channels, array has " +
          std::to_string(mics) + " mics");
    const std::size_t len = noise_only.channels.front().size();
    for (std::size_t c = 1; c < noise_only.num_channels(); ++c)
      if (noise_only.channels[c].size() != len)
        throw std::invalid_argument(
            "EchoImagePipeline: noise capture channel " + std::to_string(c) +
            " has " + std::to_string(noise_only.channels[c].size()) +
            " samples, channel 0 has " + std::to_string(len));
  }
}

ProcessedBeeps EchoImagePipeline::process(
    const std::vector<MultiChannelSignal>& beeps,
    const MultiChannelSignal& noise_only,
    const DeadlineProbe& deadline) const {
  const obs::Tracer* const tracer = obs::Observability::tracer_of(obs_.get());
  EI_SPAN(tracer, "pipeline.process");
  if (captures_counter_ != nullptr) captures_counter_->add();
  {
    EI_SPAN(tracer, "pipeline.validate");
    validate_capture(beeps, noise_only);
  }
  const std::size_t mics = geometry_.num_mics();
  ProcessedBeeps out;
  out.active_mask.assign(mics, true);

  if (config_.health_gate) {
    EI_SPAN(tracer, "pipeline.health_gate");
    out.health = assess_capture(beeps, config_.health);
    // A noise channel carrying NaN/Inf shares the faulty hardware chain
    // with its beep channel — condemn it even if the beeps looked clean
    // (a non-finite covariance would poison every beamformer weight).
    for (std::size_t c = 0; c < noise_only.num_channels(); ++c) {
      if (out.health.active_mask[c] && has_nonfinite(noise_only.channels[c])) {
        out.health.active_mask[c] = false;
        out.health.channels[c].status = ChannelStatus::kDead;
        out.health.channels[c].issues.push_back("noise capture non-finite");
      }
    }
    out.health.num_active = echoimage::array::count_active(
        out.health.active_mask);
    if (out.health.num_active < config_.health.min_active_channels)
      out.health.verdict = CaptureVerdict::kFailed;
    out.active_mask = out.health.active_mask;
    out.dropped_channels = mics - out.health.num_active;
    if (dropped_channels_hist_ != nullptr)
      dropped_channels_hist_->observe(
          static_cast<double>(out.dropped_channels));
    if (!out.health.usable()) {
      if (gate_failed_counter_ != nullptr) gate_failed_counter_->add();
      return out;  // abstain: retry, don't reject
    }
    if (out.dropped_channels > 0 && gate_degraded_counter_ != nullptr)
      gate_degraded_counter_->add();
  } else {
    // Without the gate the pipeline refuses non-finite input outright —
    // NaN propagates silently through FFTs and would emerge as a garbage
    // accept/reject downstream.
    for (std::size_t b = 0; b < beeps.size(); ++b)
      for (std::size_t c = 0; c < beeps[b].num_channels(); ++c)
        if (has_nonfinite(beeps[b].channels[c]))
          throw std::invalid_argument(
              "EchoImagePipeline: beep " + std::to_string(b) + " channel " +
              std::to_string(c) + " contains NaN/Inf samples");
    for (std::size_t c = 0; c < noise_only.num_channels(); ++c)
      if (has_nonfinite(noise_only.channels[c]))
        throw std::invalid_argument("EchoImagePipeline: noise capture channel " +
                                    std::to_string(c) +
                                    " contains NaN/Inf samples");
  }

  // Degraded path: silence the condemned channels (so full-channel DSP
  // stages never see their garbage) and beamform on the surviving
  // subarray via the mask.
  const bool reduced = out.dropped_channels > 0;
  const echoimage::array::ChannelMask& mask_ref =
      reduced ? out.active_mask : kNoMask;
  std::vector<MultiChannelSignal> clean_storage;
  const std::vector<MultiChannelSignal>* use_beeps = &beeps;
  MultiChannelSignal clean_noise;
  const MultiChannelSignal* use_noise = &noise_only;
  if (reduced) {
    clean_storage.reserve(beeps.size());
    for (const MultiChannelSignal& beep : beeps)
      clean_storage.push_back(silence_masked(beep, out.active_mask));
    use_beeps = &clean_storage;
    clean_noise = silence_masked(noise_only, out.active_mask);
    use_noise = &clean_noise;
  }

  out.distance = distance_.estimate(*use_beeps, *use_noise, mask_ref);
  if (!out.distance.valid) {
    if (distance_invalid_counter_ != nullptr) distance_invalid_counter_->add();
    return out;
  }
  // The plane sits at the centroid-derived distance (smoother than the
  // peak) and the gates anchor to the measured echo centroid.
  const units::Meters plane{out.distance.user_distance_centroid_m > 0.0
                                ? out.distance.user_distance_centroid_m
                                : out.distance.user_distance_m};
  // The deadline is polled at the imaging pass's boundaries: the pass is
  // the expensive unit of work and takes no probe. The first poll precedes
  // the capture context, so an expired deadline builds nothing; the second
  // follows the pass, and a deadline that expired during it discards every
  // image (the result is never a partial set of beeps).
  if (deadline && deadline()) {
    out.deadline_expired = true;
    return out;
  }
  // The noise path, template spectra and gate table are the same for every
  // beep of the capture: built once here, then shared by the one pass that
  // images every beep.
  const AcousticImager::CaptureContext context = imager_.capture_context(
      plane, use_beeps->front().length(), out.distance.tau_direct_s,
      *use_noise, out.distance.tau_echo_centroid_s, mask_ref);
  std::vector<AcousticImage> images =
      imager_.construct_capture(*use_beeps, context);
  if (deadline && deadline()) {
    out.deadline_expired = true;
    return out;
  }
  out.images = std::move(images);
  return out;
}

std::vector<double> EchoImagePipeline::features(
    const AcousticImage& image) const {
  EI_SPAN(obs::Observability::tracer_of(obs_.get()), "pipeline.features");
  // One band per task on the imager's pool, concatenated in band order.
  // Never called from inside an imager region, so regions do not nest.
  std::vector<std::vector<double>> per_band(image.bands.size());
  echoimage::runtime::parallel_for(
      imager_.pool().get(), image.bands.size(),
      [&](std::size_t band, std::size_t) {
        per_band[band] = extractor_.extract(image.bands[band]);
      });
  std::vector<double> out;
  for (const std::vector<double>& f : per_band)
    out.insert(out.end(), f.begin(), f.end());
  return out;
}

std::vector<std::vector<double>> EchoImagePipeline::features_batch(
    const std::vector<AcousticImage>& images, double capture_distance_m,
    bool augment) const {
  std::vector<std::vector<double>> out;
  out.reserve(images.size() *
              (augment ? 1 + config_.augmentation_distances_m.size() : 1));
  for (const AcousticImage& img : images) {
    out.push_back(features(img));
    if (!augment) continue;
    for (const double d : config_.augmentation_distances_m) {
      const AcousticImage synth =
          augmenter_.transform(img, capture_distance_m, d);
      out.push_back(features(synth));
    }
  }
  return out;
}

Authenticator EchoImagePipeline::enroll(
    const std::vector<EnrolledUser>& users) const {
  EI_SPAN(obs::Observability::tracer_of(obs_.get()), "pipeline.enroll");
  return Authenticator::train(users, config_.authenticator);
}

}  // namespace echoimage::core
