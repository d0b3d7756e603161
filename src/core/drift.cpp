#include "core/drift.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <sstream>
#include <stdexcept>

#include "dsp/fft.hpp"
#include "dsp/hilbert.hpp"
#include "dsp/matched_filter.hpp"

namespace echoimage::core {

namespace {

constexpr double kTinyPower = 1e-300;

/// Sub-sample peak position: local floor-subtracted centroid over
/// +-half_width samples around `peak`. A 10 C temperature swing only moves
/// a 3 m wall echo ~15 samples, so a raw argmax alone is too coarse a
/// thermometer.
double refine_peak(const Signal& prof, std::size_t peak,
                   std::size_t half_width) {
  const std::size_t c_lo = peak > half_width ? peak - half_width : 0;
  const std::size_t c_hi = std::min(prof.size(), peak + half_width + 1);
  double local_min = prof[peak];
  for (std::size_t i = c_lo; i < c_hi; ++i)
    local_min = std::min(local_min, prof[i]);
  double wsum = 0.0, tsum = 0.0;
  for (std::size_t i = c_lo; i < c_hi; ++i) {
    const double w = prof[i] - local_min;
    wsum += w;
    tsum += w * static_cast<double>(i);
  }
  return wsum > 0.0 ? tsum / wsum : static_cast<double>(peak);
}

double ac_rms(const Signal& ch) {
  if (ch.empty()) return 0.0;
  double mean = 0.0;
  for (const double v : ch) mean += v;
  mean /= static_cast<double>(ch.size());
  double acc = 0.0;
  for (const double v : ch) acc += (v - mean) * (v - mean);
  return std::sqrt(acc / static_cast<double>(ch.size()));
}

}  // namespace

void DriftMonitorConfig::validate() const {
  if (sample_rate <= 0.0)
    throw std::invalid_argument("DriftMonitor: sample rate must be > 0");
  if (bandpass_low_hz <= 0.0 || bandpass_high_hz <= bandpass_low_hz)
    throw std::invalid_argument("DriftMonitor: bad band-pass range");
  if (profile_end_s <= profile_start_s || profile_start_s < 0.0)
    throw std::invalid_argument("DriftMonitor: bad profile window");
  if (num_noise_bands == 0)
    throw std::invalid_argument("DriftMonitor: need at least one noise band");
  if (noise_band_low_hz <= 0.0 || noise_band_high_hz <= noise_band_low_hz)
    throw std::invalid_argument("DriftMonitor: bad noise band range");
  if (noise_floor_scale_db <= 0.0 || gain_scale_db <= 0.0 ||
      profile_distance_scale <= 0.0 || onset_scale_s <= 0.0)
    throw std::invalid_argument("DriftMonitor: deviation scales must be > 0");
  if (ewma_alpha <= 0.0 || ewma_alpha > 1.0)
    throw std::invalid_argument("DriftMonitor: ewma_alpha must be in (0, 1]");
  if (cusum_slack < 0.0)
    throw std::invalid_argument("DriftMonitor: cusum_slack must be >= 0");
  if (suspect_threshold <= 0.0 || confirm_threshold < suspect_threshold)
    throw std::invalid_argument(
        "DriftMonitor: need 0 < suspect_threshold <= confirm_threshold");
  if (min_observations == 0)
    throw std::invalid_argument("DriftMonitor: min_observations must be >= 1");
}

const char* to_string(DriftVerdict v) {
  switch (v) {
    case DriftVerdict::kNone: return "none";
    case DriftVerdict::kSuspected: return "suspected";
    case DriftVerdict::kConfirmed: return "confirmed";
  }
  return "?";
}

const char* DriftReport::dominant() const {
  const DriftStatistic* stats[] = {&noise_floor, &channel_gains,
                                   &clutter_profile, &onset_delay};
  const DriftStatistic* best = nullptr;
  for (const DriftStatistic* s : stats)
    if (s->evaluated && (best == nullptr || s->cusum > best->cusum)) best = s;
  return best != nullptr ? best->name : "";
}

std::string DriftReport::describe() const {
  std::ostringstream os;
  if (!reference_set) return "drift: no reference (cold start)";
  os << "drift: " << to_string(verdict);
  if (verdict != DriftVerdict::kNone) os << " (dominant: " << dominant() << ")";
  if (occupied) os << " [occupied capture: clutter statistics skipped]";
  const DriftStatistic* stats[] = {&noise_floor, &channel_gains,
                                   &clutter_profile, &onset_delay};
  for (const DriftStatistic* s : stats) {
    os << "\n  " << s->name << ": ";
    if (!s->evaluated) {
      os << "not evaluated";
      continue;
    }
    os << "dev " << s->deviation << ", ewma " << s->ewma << ", cusum "
       << s->cusum << " -> " << to_string(s->verdict);
  }
  return os.str();
}

DriftMonitor::DriftMonitor(DriftMonitorConfig config)
    : config_(config),
      bandpass_(echoimage::dsp::butterworth_bandpass(
          config_.bandpass_order, config_.bandpass_low_hz,
          config_.bandpass_high_hz, config_.sample_rate)),
      chirp_template_(
          echoimage::dsp::Chirp(config_.chirp).sample(config_.sample_rate)) {
  config_.validate();
}

BackgroundReference DriftMonitor::make_reference(
    const std::vector<MultiChannelSignal>& beeps,
    const MultiChannelSignal& noise_only) const {
  BackgroundReference ref;

  // Clutter-gate profile: each channel is first averaged coherently across
  // beeps — clutter echoes are phase-locked to the playback while the
  // reverb tail and ambient noise are independent realizations, so the
  // diffuse floor drops ~sqrt(beeps) and the room landmarks stand proud.
  // Envelopes are then averaged across channels (incoherently: each mic
  // sees the same wall at a different delay). Per-channel, no beamforming —
  // the room response is wanted from all directions, not just the beam.
  const std::size_t num_channels =
      beeps.empty() ? 0 : beeps.front().num_channels();
  Signal env;
  std::size_t used = 0;
  for (std::size_t c = 0; c < num_channels; ++c) {
    Signal avg;
    std::size_t stacked = 0;
    for (const MultiChannelSignal& beep : beeps) {
      if (c >= beep.num_channels()) continue;
      const Signal& ch = beep.channels[c];
      if (avg.empty()) avg.assign(ch.size(), 0.0);
      const std::size_t n = std::min(avg.size(), ch.size());
      for (std::size_t i = 0; i < n; ++i) avg[i] += ch[i];
      ++stacked;
    }
    if (stacked == 0) continue;
    for (double& v : avg) v /= static_cast<double>(stacked);
    const Signal filtered = bandpass_.filtfilt(avg);
    // Chain gain (speaker x microphone) from the in-band beep average:
    // the chirp and its echoes dominate the bandpassed RMS, and coherent
    // averaging has already pushed the ambient down, so an ambient-floor
    // ramp does not masquerade as gain drift here (deriving gains from the
    // noise gap instead would confound exactly those two).
    ref.channel_rms.push_back(ac_rms(filtered));
    const Signal e = echoimage::dsp::matched_filter_envelope(
        echoimage::dsp::analytic_signal(filtered), chirp_template_);
    if (env.empty()) env.assign(e.size(), 0.0);
    const std::size_t n = std::min(env.size(), e.size());
    for (std::size_t i = 0; i < n; ++i) env[i] += e[i];
    ++used;
  }
  if (used > 0)
    for (double& v : env) v /= static_cast<double>(used);

  if (!env.empty()) {
    const std::size_t direct_end = std::min(
        env.size(),
        std::max<std::size_t>(1, echoimage::dsp::seconds_to_samples(
                                     config_.direct_search_window_s,
                                     config_.sample_rate)));
    std::size_t tau1 = 0;
    for (std::size_t i = 1; i < direct_end; ++i)
      if (env[i] > env[tau1]) tau1 = i;
    ref.direct_delay_s =
        echoimage::dsp::samples_to_seconds(tau1, config_.sample_rate);

    const std::size_t lo = echoimage::dsp::seconds_to_samples(
        config_.profile_start_s, config_.sample_rate);
    const std::size_t hi = std::min(
        env.size(), echoimage::dsp::seconds_to_samples(config_.profile_end_s,
                                                       config_.sample_rate));
    if (lo < hi) {
      ref.clutter_profile = echoimage::dsp::moving_average(
          std::span<const double>(env.data() + lo, hi - lo),
          config_.profile_smooth_samples);

      // Onset of the strongest clutter echo, refined to sub-sample
      // precision. Used as the lever arm when converting an align_profiles
      // time scale into an onset shift in seconds.
      const Signal& prof = ref.clutter_profile;
      std::size_t peak = 0;
      for (std::size_t i = 1; i < prof.size(); ++i)
        if (prof[i] > prof[peak]) peak = i;
      const std::size_t hw = std::max<std::size_t>(
          1, echoimage::dsp::seconds_to_samples(0.001, config_.sample_rate));
      const double centroid = refine_peak(prof, peak, hw);
      ref.echo_onset_s =
          (static_cast<double>(lo) + centroid) / config_.sample_rate;
      ref.valid = true;
    }
  }

  // Noise-gap statistics: a geometrically banded power spectrum averaged
  // over channels. Each channel is zero-padded to a power of two, and each
  // bin's power is divided by the unpadded gap length, so a longer gap of
  // the same room reads the same power spectral density, not a louder one.
  if (noise_only.num_channels() > 0 && noise_only.length() > 0) {
    std::vector<double> band_power(config_.num_noise_bands, 0.0);
    std::vector<std::size_t> band_bins(config_.num_noise_bands, 0);
    const double log_span =
        std::log(config_.noise_band_high_hz / config_.noise_band_low_hz);
    for (const Signal& ch : noise_only.channels) {
      double mean = 0.0;
      for (const double v : ch) mean += v;
      mean /= static_cast<double>(ch.size());
      echoimage::dsp::ComplexSignal spec(echoimage::dsp::next_pow2(ch.size()));
      for (std::size_t i = 0; i < ch.size(); ++i) spec[i] = ch[i] - mean;
      echoimage::dsp::fft_pow2_in_place(spec, false);
      const double gap = static_cast<double>(ch.size());
      for (std::size_t k = 1; k <= spec.size() / 2; ++k) {
        const double f = echoimage::dsp::bin_frequency(k, spec.size(),
                                                       config_.sample_rate);
        if (f < config_.noise_band_low_hz || f >= config_.noise_band_high_hz)
          continue;
        const double frac = std::log(f / config_.noise_band_low_hz) / log_span;
        const std::size_t b = std::min(
            config_.num_noise_bands - 1,
            static_cast<std::size_t>(frac *
                                     static_cast<double>(config_.num_noise_bands)));
        band_power[b] += std::norm(spec[k]) / gap;
        ++band_bins[b];
      }
    }
    ref.noise_band_db.reserve(config_.num_noise_bands);
    for (std::size_t b = 0; b < config_.num_noise_bands; ++b) {
      const double p = band_bins[b] > 0
                           ? band_power[b] / static_cast<double>(band_bins[b])
                           : 0.0;
      ref.noise_band_db.push_back(10.0 * std::log10(p + kTinyPower));
    }
  }
  return ref;
}

DriftMonitor::ProfileAlignment DriftMonitor::align_profiles(
    const Signal& reference, const Signal& live) const {
  ProfileAlignment out;
  if (reference.empty() || live.empty()) return out;
  const double lo = static_cast<double>(echoimage::dsp::seconds_to_samples(
      config_.profile_start_s, config_.sample_rate));

  // Mean-removed correlation of live against the reference warped by time
  // scale s: live index i sits at absolute sample lo + i and is compared
  // with the reference at absolute sample s * (lo + i) (linear interp).
  const auto warped_corr = [&](double s) {
    double sa = 0.0, sb = 0.0, saa = 0.0, sbb = 0.0, sab = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < live.size(); ++i) {
      const double rj = s * (lo + static_cast<double>(i)) - lo;
      if (rj < 0.0) continue;
      const auto j = static_cast<std::size_t>(rj);
      if (j + 1 >= reference.size()) break;
      const double frac = rj - static_cast<double>(j);
      const double rv = reference[j] * (1.0 - frac) + reference[j + 1] * frac;
      const double lv = live[i];
      sa += rv;
      sb += lv;
      saa += rv * rv;
      sbb += lv * lv;
      sab += rv * lv;
      ++n;
    }
    if (n < 16) return -1.0;
    const double nd = static_cast<double>(n);
    const double cov = sab - sa * sb / nd;
    const double va = saa - sa * sa / nd;
    const double vb = sbb - sb * sb / nd;
    if (va <= 0.0 || vb <= 0.0) return -1.0;
    return cov / std::sqrt(va * vb);
  };

  // +-7% covers the full credible speed-of-sound correction (6%) with a
  // margin so the divergence gate sees the boundary, not a clamp.
  constexpr double kSpan = 0.07;
  constexpr double kStep = 0.002;
  double best_s = 1.0, best_c = -2.0;
  for (double s = 1.0 - kSpan; s <= 1.0 + kSpan + 1e-12; s += kStep) {
    const double c = warped_corr(s);
    if (c > best_c) {
      best_c = c;
      best_s = s;
    }
  }
  // Parabolic refinement of the correlation-vs-scale curve around the best
  // grid point (vertex of the fit through the three neighbouring samples).
  const double c0 = warped_corr(best_s - kStep);
  const double c2 = warped_corr(best_s + kStep);
  if (c0 > -1.0 && c2 > -1.0 && best_c > -1.0) {
    const double denom = c0 - 2.0 * best_c + c2;
    if (std::abs(denom) > 1e-12) {
      const double delta = 0.5 * (c0 - c2) / denom;
      if (std::abs(delta) <= 1.0) best_s += delta * kStep;
    }
  }
  out.time_scale = best_s;
  out.correlation = best_c;
  return out;
}

void DriftMonitor::set_reference(BackgroundReference reference) {
  reference_ = std::move(reference);
  reset();
}

void DriftMonitor::set_reference(const std::vector<MultiChannelSignal>& beeps,
                                 const MultiChannelSignal& noise_only) {
  set_reference(make_reference(beeps, noise_only));
}

void DriftMonitor::reset() {
  noise_floor_ = Detector{};
  channel_gains_ = Detector{};
  clutter_profile_ = Detector{};
  onset_delay_ = Detector{};
}

void DriftMonitor::score(Detector& det, DriftStatistic& stat,
                         double deviation) const {
  ++det.observations;
  det.ewma = det.observations == 1
                 ? deviation
                 : (1.0 - config_.ewma_alpha) * det.ewma +
                       config_.ewma_alpha * deviation;
  det.cusum = std::max(0.0, det.cusum + deviation - config_.cusum_slack);
  stat.evaluated = true;
  stat.deviation = deviation;
  stat.ewma = det.ewma;
  stat.cusum = det.cusum;
  if (det.cusum >= config_.confirm_threshold &&
      det.observations >= config_.min_observations)
    stat.verdict = DriftVerdict::kConfirmed;
  else if (stat.cusum >= config_.suspect_threshold)
    stat.verdict = DriftVerdict::kSuspected;
}

DriftReport DriftMonitor::observe(const std::vector<MultiChannelSignal>& beeps,
                                  const MultiChannelSignal& noise_only,
                                  bool occupied) {
  DriftReport rep;
  rep.occupied = occupied;
  if (!reference_.valid) return rep;  // cold start: nothing to compare with
  rep.reference_set = true;

  const BackgroundReference live = make_reference(beeps, noise_only);

  // Noise-floor band spectrum: mean absolute band-power shift. Rises when
  // the ambient climbs *or* when every microphone's gain moves together —
  // the two are indistinguishable from the noise gap alone.
  if (!reference_.noise_band_db.empty() &&
      live.noise_band_db.size() == reference_.noise_band_db.size()) {
    double shift = 0.0;
    for (std::size_t b = 0; b < live.noise_band_db.size(); ++b)
      shift += std::abs(live.noise_band_db[b] - reference_.noise_band_db[b]);
    shift /= static_cast<double>(live.noise_band_db.size());
    score(noise_floor_, rep.noise_floor, shift / config_.noise_floor_scale_db);
  }

  // Per-channel gains: worst inter-channel log-RMS imbalance relative to
  // the reference, common mode removed (that belongs to the noise floor).
  if (!reference_.channel_rms.empty() &&
      live.channel_rms.size() == reference_.channel_rms.size()) {
    std::vector<double> log_gain;
    log_gain.reserve(live.channel_rms.size());
    double mean = 0.0;
    for (std::size_t c = 0; c < live.channel_rms.size(); ++c) {
      const double lr = live.channel_rms[c];
      const double rr = reference_.channel_rms[c];
      const double g =
          lr > 0.0 && rr > 0.0 ? 20.0 * std::log10(lr / rr) : 0.0;
      log_gain.push_back(g);
      mean += g;
    }
    mean /= static_cast<double>(log_gain.size());
    double worst = 0.0;
    for (const double g : log_gain)
      worst = std::max(worst, std::abs(g - mean));
    score(channel_gains_, rep.channel_gains, worst / config_.gain_scale_db);
  }

  // Clutter statistics only run on empty-room captures: a body in the
  // frame is signal, not background, and must not be allowed to look like
  // (or mask) drift.
  if (!occupied && live.valid && !reference_.clutter_profile.empty()) {
    // One alignment feeds both clutter statistics. Scoring the correlation
    // at the *best* time scale makes the shape statistic insensitive to a
    // pure temperature change (which only slides the profile) — that
    // belongs to the onset statistic below, which measures the slide.
    const ProfileAlignment align =
        align_profiles(reference_.clutter_profile, live.clutter_profile);
    score(clutter_profile_, rep.clutter_profile,
          (1.0 - align.correlation) / config_.profile_distance_scale);

    // Implied shift of the self-echo onset: tau = L / c for the fixed
    // room geometry, so a time scale s moves a landmark at ref_rel to
    // ref_rel / s.
    const double ref_rel = reference_.relative_onset_s();
    if (ref_rel > 0.0 && align.correlation > 0.0)
      score(onset_delay_, rep.onset_delay,
            ref_rel * std::abs(1.0 - 1.0 / align.time_scale) /
                config_.onset_scale_s);
  }

  const DriftStatistic* stats[] = {&rep.noise_floor, &rep.channel_gains,
                                   &rep.clutter_profile, &rep.onset_delay};
  for (const DriftStatistic* s : stats)
    if (s->evaluated && static_cast<int>(s->verdict) >
                            static_cast<int>(rep.verdict))
      rep.verdict = s->verdict;
  return rep;
}

void RecalibrationConfig::validate() const {
  if (max_probe_attempts == 0 || min_empty_probes == 0)
    throw std::invalid_argument(
        "Recalibration: probe counts must be positive");
  if (min_empty_probes > max_probe_attempts)
    throw std::invalid_argument(
        "Recalibration: min_empty_probes must be <= max_probe_attempts");
  if (max_speed_fraction_change <= 0.0 || max_speed_fraction_change >= 1.0)
    throw std::invalid_argument(
        "Recalibration: max_speed_fraction_change must be in (0, 1)");
  if (max_gain_correction <= 1.0)
    throw std::invalid_argument(
        "Recalibration: max_gain_correction must be > 1");
  if (min_profile_correlation < -1.0 || min_profile_correlation > 1.0)
    throw std::invalid_argument(
        "Recalibration: min_profile_correlation must be in [-1, 1]");
}

const char* to_string(RecalibrationOutcome o) {
  switch (o) {
    case RecalibrationOutcome::kRecalibrated: return "recalibrated";
    case RecalibrationOutcome::kNoProbeSource: return "no probe source";
    case RecalibrationOutcome::kNoEmptyRoom: return "no empty-room probes";
    case RecalibrationOutcome::kDiverged: return "diverged";
  }
  return "?";
}

std::string DriftCorrections::describe() const {
  if (!active) return "corrections: none";
  std::ostringstream os;
  os << "corrections: speed of sound " << speed_of_sound << " m/s (implied "
     << temperature_c << " C), channel gains:";
  for (const double g : channel_gains) os << " " << g;
  if (channel_gains.empty()) os << " unchanged";
  return os.str();
}

DriftManager::DriftManager(const EchoImagePipeline& base_pipeline,
                           DriftMonitorConfig monitor_config,
                           RecalibrationConfig recalibration_config)
    : base_(&base_pipeline),
      recalibration_(recalibration_config),
      monitor_(monitor_config) {
  recalibration_.validate();
  const std::shared_ptr<const obs::Observability>& obs =
      base_pipeline.observability();
  if (obs == nullptr) return;
  tracer_ = obs::Observability::tracer_of(obs.get());
  observations_counter_ = &obs->metrics().counter("drift.observations");
  quarantines_counter_ = &obs->metrics().counter("drift.quarantines");
  recalibrations_counter_ = &obs->metrics().counter("drift.recalibrations");
  recalibration_failures_counter_ =
      &obs->metrics().counter("drift.recalibration_failures");
}

DriftManager::DriftManager(const EchoImagePipeline& base_pipeline)
    : DriftManager(base_pipeline,
                   make_drift_monitor_config(base_pipeline.config())) {}

void DriftManager::set_reference(const std::vector<MultiChannelSignal>& beeps,
                                 const MultiChannelSignal& noise_only) {
  BackgroundReference ref = monitor_.make_reference(beeps, noise_only);
  if (!ref.valid)
    throw std::invalid_argument(
        "DriftManager: reference capture yielded no background profile");
  enrollment_ = ref;
  monitor_.set_reference(std::move(ref));
}

void DriftManager::set_probe_source(CaptureSource source) {
  probe_source_ = std::move(source);
}

void DriftManager::correct(std::vector<MultiChannelSignal>& beeps,
                           MultiChannelSignal& noise_only) const {
  if (!corrections_.active || corrections_.channel_gains.empty()) return;
  const std::vector<double>& g = corrections_.channel_gains;
  for (MultiChannelSignal& beep : beeps)
    for (std::size_t c = 0; c < std::min(beep.num_channels(), g.size()); ++c)
      for (double& v : beep.channels[c]) v *= g[c];
  for (std::size_t c = 0;
       c < std::min(noise_only.num_channels(), g.size()); ++c)
    for (double& v : noise_only.channels[c]) v *= g[c];
}

DriftReport DriftManager::observe(const std::vector<MultiChannelSignal>& beeps,
                                  const MultiChannelSignal& noise_only,
                                  bool occupied) {
  EI_SPAN(tracer_, "drift.observe");
  if (observations_counter_ != nullptr) observations_counter_->add();
  last_report_ = monitor_.observe(beeps, noise_only, occupied);
  if (last_report_.verdict == DriftVerdict::kConfirmed && !quarantined_) {
    quarantined_ = true;
    if (quarantines_counter_ != nullptr) quarantines_counter_->add();
  }
  return last_report_;
}

DriftReport DriftManager::background_scan() {
  EI_SPAN(tracer_, "drift.background_scan");
  if (!probe_source_ || !monitor_.has_reference()) return DriftReport{};
  const CaptureAttempt probe = probe_source_(probes_drawn_++);
  std::vector<MultiChannelSignal> beeps = probe.beeps;
  MultiChannelSignal noise = probe.noise_only;
  correct(beeps, noise);
  const ProcessedBeeps p = pipeline().process(beeps, noise);
  if (!p.gate_passed()) return DriftReport{};  // broken capture, not drift
  return observe(probe.beeps, probe.noise_only, p.distance.valid);
}

RecalibrationOutcome DriftManager::recalibrate() {
  EI_SPAN(tracer_, "drift.recalibrate");
  const RecalibrationOutcome outcome = recalibrate_impl();
  if (outcome == RecalibrationOutcome::kRecalibrated) {
    if (recalibrations_counter_ != nullptr) recalibrations_counter_->add();
  } else if (recalibration_failures_counter_ != nullptr) {
    recalibration_failures_counter_->add();
  }
  return outcome;
}

RecalibrationOutcome DriftManager::recalibrate_impl() {
  if (!probe_source_) return RecalibrationOutcome::kNoProbeSource;
  if (!enrollment_.valid) return RecalibrationOutcome::kNoEmptyRoom;

  // Pool probes the *base* pipeline confirms are empty-room: the health
  // gate must pass (a dead channel is not background) and the distance
  // estimator must find nobody (a body echo would contaminate both the
  // noise statistics and the clutter profile).
  std::vector<MultiChannelSignal> pooled_beeps;
  MultiChannelSignal pooled_noise;
  std::size_t empties = 0;
  for (std::size_t attempt = 0; attempt < recalibration_.max_probe_attempts &&
                                empties < recalibration_.min_empty_probes;
       ++attempt) {
    const CaptureAttempt probe = probe_source_(probes_drawn_++);
    const ProcessedBeeps p = base_->process(probe.beeps, probe.noise_only);
    if (!p.gate_passed()) continue;
    if (p.distance.valid) continue;  // someone is standing in the frame
    pooled_beeps.insert(pooled_beeps.end(), probe.beeps.begin(),
                        probe.beeps.end());
    if (pooled_noise.num_channels() == 0) {
      pooled_noise = probe.noise_only;
    } else if (probe.noise_only.num_channels() ==
               pooled_noise.num_channels()) {
      for (std::size_t c = 0; c < pooled_noise.num_channels(); ++c)
        pooled_noise.channels[c].insert(pooled_noise.channels[c].end(),
                                        probe.noise_only.channels[c].begin(),
                                        probe.noise_only.channels[c].end());
    }
    ++empties;
  }
  if (empties < recalibration_.min_empty_probes)
    return RecalibrationOutcome::kNoEmptyRoom;

  const BackgroundReference fresh =
      monitor_.make_reference(pooled_beeps, pooled_noise);
  if (!fresh.valid) return RecalibrationOutcome::kNoEmptyRoom;

  // Corrections are always derived against the immutable *enrollment*
  // reference — repeated recalibrations replace each other instead of
  // compounding.
  DriftCorrections next;
  if (!enrollment_.channel_rms.empty() &&
      fresh.channel_rms.size() == enrollment_.channel_rms.size()) {
    next.channel_gains.reserve(fresh.channel_rms.size());
    for (std::size_t c = 0; c < fresh.channel_rms.size(); ++c) {
      if (fresh.channel_rms[c] <= 0.0 || enrollment_.channel_rms[c] <= 0.0)
        return RecalibrationOutcome::kDiverged;
      const double g = enrollment_.channel_rms[c] / fresh.channel_rms[c];
      if (g > recalibration_.max_gain_correction ||
          g < 1.0 / recalibration_.max_gain_correction)
        return RecalibrationOutcome::kDiverged;
      next.channel_gains.push_back(g);
    }
  }

  // If the room changed beyond recognition, the time-scale estimate is
  // meaningless — refuse to converge rather than install a garbage speed
  // of sound. The correlation is taken at the *best* warp so a large but
  // legitimate temperature swing does not read as an unrecognizable room.
  const DriftMonitor::ProfileAlignment align = monitor_.align_profiles(
      enrollment_.clutter_profile, fresh.clutter_profile);
  if (align.correlation < recalibration_.min_profile_correlation)
    return RecalibrationOutcome::kDiverged;

  // Temperature from the profile time scale: the clutter geometry is
  // fixed, every echo obeys tau = L / c, and align_profiles measured
  // live(t) ~ enroll(s * t), i.e. c_live ~ s * c_enroll.
  double speed = base_->config().speed_of_sound.value();
  {
    const double corrected = speed * align.time_scale;
    if (std::abs(corrected / speed - 1.0) >
        recalibration_.max_speed_fraction_change)
      return RecalibrationOutcome::kDiverged;
    speed = corrected;
  }
  next.speed_of_sound = speed;
  next.temperature_c =
      echoimage::array::temperature_for_speed_of_sound(
          units::MetersPerSecond{speed})
          .value();
  next.active = true;

  SystemConfig config = base_->config();
  config.speed_of_sound = units::MetersPerSecond{speed};
  corrected_ =
      std::make_unique<EchoImagePipeline>(config, base_->geometry());
  corrections_ = std::move(next);
  monitor_.set_reference(fresh);  // future drift is relative to *this* room
  quarantined_ = false;
  ++recalibrations_;
  return RecalibrationOutcome::kRecalibrated;
}

DriftMonitorConfig make_drift_monitor_config(const SystemConfig& system) {
  DriftMonitorConfig config;
  config.sample_rate = system.sample_rate;
  config.chirp = system.chirp;
  config.bandpass_low_hz = system.distance.bandpass_low_hz;
  config.bandpass_high_hz = system.distance.bandpass_high_hz;
  config.bandpass_order = system.distance.bandpass_order;
  return config;
}

}  // namespace echoimage::core
