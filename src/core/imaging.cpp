#include "core/imaging.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <utility>

#include "array/steering.hpp"
#include "dsp/butterworth.hpp"
#include "dsp/hilbert.hpp"
#include "dsp/matched_filter.hpp"
#include "runtime/parallel_for.hpp"

namespace echoimage::core {

using echoimage::array::Direction;
using echoimage::array::NarrowbandBeamformer;

namespace {

// Grid center in array coordinates: columns span x (lateral), rows span z
// (vertical, row 0 on top), the plane sits at y = D_p.
echoimage::array::Vec3 grid_center(const ImagingConfig& config,
                                   std::size_t row, std::size_t col,
                                   double plane_distance_m) {
  const double half =
      0.5 * static_cast<double>(config.grid_size - 1) * config.grid_spacing_m;
  const double x = static_cast<double>(col) * config.grid_spacing_m - half;
  const double z = config.plane_center_z_m + half -
                   static_cast<double>(row) * config.grid_spacing_m;
  return {x, plane_distance_m, z};
}

}  // namespace

units::Meters grid_distance(const ImagingConfig& config, std::size_t row,
                            std::size_t col, units::Meters plane_distance) {
  return units::Meters{
      grid_center(config, row, col, plane_distance.value()).norm()};
}

AcousticImager::AcousticImager(ImagingConfig config, ArrayGeometry geometry)
    : config_(std::move(config)),
      geometry_(std::move(geometry)),
      bandpass_filter_(echoimage::dsp::butterworth_bandpass(
          config_.bandpass_order, config_.bandpass_low_hz,
          config_.bandpass_high_hz, config_.sample_rate)) {
  const std::size_t threads =
      echoimage::runtime::resolve_workers(config_.num_threads);
  if (threads > 1)
    pool_ = std::make_shared<echoimage::runtime::ThreadPool>(threads);
  if (config_.grid_size == 0)
    throw std::invalid_argument("AcousticImager: grid_size must be positive");
  if (config_.grid_spacing_m <= 0.0)
    throw std::invalid_argument("AcousticImager: grid spacing must be > 0");
  if (config_.num_subbands == 0)
    throw std::invalid_argument("AcousticImager: need at least one subband");
  // Subband filters for frequency compounding, plus the matched-filter
  // template each band compresses against.
  const echoimage::dsp::Signal full_template =
      echoimage::dsp::Chirp(config_.chirp).sample(config_.sample_rate);
  const double lo = config_.bandpass_low_hz;
  const double width = (config_.bandpass_high_hz - config_.bandpass_low_hz) /
                       static_cast<double>(config_.num_subbands);
  for (std::size_t b = 0; b < config_.num_subbands; ++b) {
    const double b_lo = lo + static_cast<double>(b) * width;
    const double b_hi = b_lo + width;
    subband_centers_.push_back(0.5 * (b_lo + b_hi));
    if (config_.num_subbands > 1) {
      subband_filters_.push_back(echoimage::dsp::butterworth_bandpass(
          2, b_lo, b_hi, config_.sample_rate));
      subband_templates_.push_back(
          subband_filters_.back().filtfilt(full_template));
    } else {
      subband_templates_.push_back(full_template);
    }
  }
}

void AcousticImager::attach_observability(
    std::shared_ptr<const obs::Observability> obs) {
  obs_ = std::move(obs);
  images_counter_ = nullptr;
  bands_counter_ = nullptr;
  if (obs_ == nullptr) return;
  images_counter_ = &obs_->metrics().counter("imaging.images");
  bands_counter_ = &obs_->metrics().counter("imaging.bands");
}

// A pixel's range gate depends only on its distance to the array, so a
// plane has a few hundred distinct gates against G^2 pixels (32,400 at
// paper scale): direction-free work runs once per distinct gate, on
// exactly the (first, count) window the pixel would have passed.
struct AcousticImager::GateTable {
  GateTable(const ImagingConfig& config, double plane_distance_m,
            double tau_direct_s, double tau_echo_s)
      : pixel_gate(config.grid_size * config.grid_size) {
    const double gate_extra = config.chirp.duration.value();  // echo smear
    const double speed = config.speed_of_sound.value();
    // Echoes from grid k: the compressed pulse peaks at the onset 2 Dk/c;
    // without compression the raw chirp occupies a further chirp-length of
    // samples. With echo anchoring the gate tracks the measured echo time,
    // cancelling constant detection bias.
    const bool anchored = config.anchor_to_echo && tau_echo_s >= 0.0;
    std::map<std::pair<std::size_t, std::size_t>, std::uint32_t> seen;
    for (std::size_t k = 0; k < pixel_gate.size(); ++k) {
      const double dk = grid_center(config, k / config.grid_size,
                                    k % config.grid_size, plane_distance_m)
                            .norm();
      const double onset =
          anchored ? tau_echo_s + 2.0 * (dk - plane_distance_m) / speed
                   : tau_direct_s + 2.0 * dk / speed;
      const double t0 = onset - config.gate_halfwidth_s;
      const double t1 = onset + config.gate_halfwidth_s +
                        (config.pulse_compression ? 0.0 : gate_extra);
      const std::size_t first = echoimage::dsp::seconds_to_samples(
          std::max(0.0, t0), config.sample_rate);
      const std::size_t last = echoimage::dsp::seconds_to_samples(
          std::max(0.0, t1), config.sample_rate);
      const auto [it, fresh] =
          seen.try_emplace({first, last > first ? last - first : 0},
                           static_cast<std::uint32_t>(gates.size()));
      if (fresh) gates.push_back(it->first);
      pixel_gate[k] = it->second;
    }
  }

  std::vector<std::pair<std::size_t, std::size_t>> gates;  ///< (first, count)
  std::vector<std::uint32_t> pixel_gate;  ///< pixel -> index into gates
};

void AcousticImager::prepare(const MultiChannelSignal& beep,
                             const MultiChannelSignal& noise_only,
                             double tau_direct_s,
                             MultiChannelSignal& filtered,
                             MultiChannelSignal& noise_f,
                             bool& have_noise) const {
  EI_SPAN(obs::Observability::tracer_of(obs_.get()), "imaging.prepare");
  // Band-pass all channels to the probing band, lockstepped across
  // channels (bit-identical to per-channel filtfilt).
  filtered.channels = bandpass_filter_.filtfilt_multi(beep.channels);

  // Self-interference removal: zero the direct speaker->mic chirp region
  // (it is ~50 dB above body echoes and its analytic-signal tails would
  // otherwise smear across the echo window).
  if (config_.suppress_direct) {
    const std::size_t direct_end = echoimage::dsp::seconds_to_samples(
        tau_direct_s + config_.chirp.duration.value() + config_.direct_guard_s,
        config_.sample_rate);
    for (auto& ch : filtered.channels) {
      const std::size_t n = std::min(direct_end, ch.size());
      std::fill(ch.begin(), ch.begin() + static_cast<std::ptrdiff_t>(n), 0.0);
    }
  }

  have_noise = noise_only.num_channels() == filtered.num_channels() &&
               noise_only.length() > 0;
  noise_f.channels.clear();
  if (have_noise)
    noise_f.channels = bandpass_filter_.filtfilt_multi(noise_only.channels);
}

void AcousticImager::accumulate_band(
    std::size_t band, const MultiChannelSignal& filtered,
    const MultiChannelSignal& noise_f, bool have_noise,
    double plane_distance_m, const GateTable& gates,
    const echoimage::array::ChannelMask& active_mask, Matrix2D& image) const {
  const obs::Tracer* const tracer = obs::Observability::tracer_of(obs_.get());
  EI_SPAN(tracer, "imaging.band", band);
  if (bands_counter_ != nullptr) bands_counter_->add();

  // Subband isolation (skipped when only one band is configured).
  const MultiChannelSignal* band_signal = &filtered;
  MultiChannelSignal band_filtered;
  echoimage::array::CMatrix cov =
      echoimage::array::white_noise_covariance(filtered.num_channels());
  if (config_.num_subbands > 1) {
    const auto& f = subband_filters_[band];
    band_filtered.channels = f.filtfilt_multi(filtered.channels);
    band_signal = &band_filtered;
    if (have_noise) {
      MultiChannelSignal band_noise;
      band_noise.channels = f.filtfilt_multi(noise_f.channels);
      cov = echoimage::array::noise_covariance_of(band_noise);
    }
  } else if (have_noise) {
    cov = echoimage::array::noise_covariance_of(noise_f);
  }

  // Per-channel complex signals: analytic, then (optionally) pulse-
  // compressed against this band's chirp template. Matched filtering
  // commutes with the linear beamformer, so compressing per channel once
  // is equivalent to compressing every steered output.
  std::vector<echoimage::dsp::ComplexSignal> channels;
  channels.reserve(band_signal->num_channels());
  for (const auto& ch : band_signal->channels) {
    echoimage::dsp::ComplexSignal a = echoimage::dsp::analytic_signal(ch);
    if (config_.pulse_compression)
      a = echoimage::dsp::matched_filter_complex(a, subband_templates_[band]);
    channels.push_back(std::move(a));
  }
  const NarrowbandBeamformer bf(std::move(channels), config_.sample_rate,
                                units::Hertz{subband_centers_[band]}, geometry_,
                                cov, config_.speed_of_sound, active_mask,
                                config_.numeric_lane);

  const double mix = std::clamp(config_.incoherent_mix, 0.0, 1.0);
  std::vector<double> incoherent(gates.gates.size(), 0.0);
  if (mix > 0.0)
    for (std::size_t g = 0; g < gates.gates.size(); ++g)
      incoherent[g] =
          bf.incoherent_energy(gates.gates[g].first, gates.gates[g].second);

  // Per-grid loop: every grid writes its own pixel and bands accumulate in
  // a fixed outer order, so the image is bit-identical for any worker
  // count.
  struct PixelScratch {
    std::vector<echoimage::dsp::Complex> steering;
    std::vector<echoimage::dsp::Complex> weights;
  };
  echoimage::runtime::ScratchArena<PixelScratch> arena(
      pool_ != nullptr ? pool_->num_workers() : 1);
  std::vector<double>& pixels = image.data();

  const auto grid_energy = [&](std::size_t k, std::size_t worker) {
    const std::uint32_t g = gates.pixel_gate[k];
    double e = 0.0;
    if (mix < 1.0) {
      PixelScratch& s = arena.local(worker);
      const Direction dir = echoimage::array::direction_to_point(grid_center(
          config_, k / config_.grid_size, k % config_.grid_size,
          plane_distance_m));
      bf.compute_weights(dir, config_.use_mvdr, s.steering, s.weights);
      e += (1.0 - mix) * bf.steered_energy(s.weights, gates.gates[g].first,
                                           gates.gates[g].second);
    }
    if (mix > 0.0) e += mix * incoherent[g];
    pixels[k] += e;
  };
  // One task per grid row — a fixed grain, so the recorded
  // `imaging.grid_chunk[row]` spans are identical for every worker count
  // (the determinism contract in obs/trace.hpp); pixels still write
  // disjoint slots, so the image itself stays bit-identical too.
  EI_SPAN_NAMED(sweep_span, tracer, "imaging.grid_sweep", band);
  const obs::SpanHandle sweep = sweep_span.handle();
  const auto row_task = [&](std::size_t row, std::size_t worker) {
    EI_SPAN(tracer, "imaging.grid_chunk", row, sweep);
    const std::size_t base = row * config_.grid_size;
    for (std::size_t col = 0; col < config_.grid_size; ++col)
      grid_energy(base + col, worker);
  };
  if (pool_ != nullptr) {
    echoimage::runtime::parallel_for(*pool_, config_.grid_size, row_task);
  } else {
    for (std::size_t row = 0; row < config_.grid_size; ++row) row_task(row, 0);
  }
}

Matrix2D AcousticImager::construct(
    const MultiChannelSignal& beep, units::Meters plane_distance,
    double tau_direct_s, const MultiChannelSignal& noise_only,
    double tau_echo_s, const echoimage::array::ChannelMask& active_mask) const {
  if (plane_distance.value() <= 0.0)
    throw std::invalid_argument("AcousticImager: plane distance must be > 0");
  EI_SPAN(obs::Observability::tracer_of(obs_.get()), "imaging.construct");
  if (images_counter_ != nullptr) images_counter_->add();
  MultiChannelSignal filtered, noise_f;
  bool have_noise = false;
  prepare(beep, noise_only, tau_direct_s, filtered, noise_f, have_noise);
  const GateTable gates(config_, plane_distance.value(), tau_direct_s,
                        tau_echo_s);

  Matrix2D image(config_.grid_size, config_.grid_size);
  for (std::size_t band = 0; band < config_.num_subbands; ++band)
    accumulate_band(band, filtered, noise_f, have_noise, plane_distance.value(),
                    gates, active_mask, image);
  // L2 norm of the gated segment(s): sqrt of the (compounded) energy.
  for (double& v : image.data()) v = std::sqrt(v);
  return image;
}

std::vector<Matrix2D> AcousticImager::construct_bands(
    const MultiChannelSignal& beep, units::Meters plane_distance,
    double tau_direct_s, const MultiChannelSignal& noise_only,
    double tau_echo_s, const echoimage::array::ChannelMask& active_mask) const {
  if (plane_distance.value() <= 0.0)
    throw std::invalid_argument("AcousticImager: plane distance must be > 0");
  EI_SPAN(obs::Observability::tracer_of(obs_.get()), "imaging.construct");
  if (images_counter_ != nullptr) images_counter_->add();
  MultiChannelSignal filtered, noise_f;
  bool have_noise = false;
  prepare(beep, noise_only, tau_direct_s, filtered, noise_f, have_noise);
  const GateTable gates(config_, plane_distance.value(), tau_direct_s,
                        tau_echo_s);

  std::vector<Matrix2D> bands;
  bands.reserve(config_.num_subbands);
  for (std::size_t band = 0; band < config_.num_subbands; ++band) {
    Matrix2D image(config_.grid_size, config_.grid_size);
    accumulate_band(band, filtered, noise_f, have_noise, plane_distance.value(),
                    gates, active_mask, image);
    for (double& v : image.data()) v = std::sqrt(v);
    bands.push_back(std::move(image));
  }
  return bands;
}

}  // namespace echoimage::core
