#include "core/imaging.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <optional>
#include <stdexcept>
#include <utility>

#include "dsp/butterworth.hpp"
#include "dsp/hilbert.hpp"
#include "dsp/matched_filter.hpp"
#include "runtime/parallel_for.hpp"
#include "simd/kernels.hpp"

namespace echoimage::core {

using echoimage::dsp::ComplexSignal;

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

AcousticImager::GateTable::GateTable(const ImagingConfig& config,
                                     units::Meters plane_distance,
                                     double tau_direct_s, double tau_echo_s,
                                     echoimage::runtime::ThreadPool* pool)
    : pixel_gate(config.grid_size * config.grid_size) {
  const double plane_distance_m = plane_distance.value();
  const double gate_extra = config.chirp.duration.value();  // echo smear
  const double speed = config.speed_of_sound.value();
  // Echoes from grid k: the compressed pulse peaks at the onset 2 Dk/c;
  // without compression the raw chirp occupies a further chirp-length of
  // samples. With echo anchoring the gate tracks the measured echo time,
  // cancelling constant detection bias. Each pixel's (first, count) key,
  // one task per grid row.
  const bool anchored = config.anchor_to_echo && tau_echo_s >= 0.0;
  const std::size_t grid = config.grid_size;
  std::vector<std::pair<std::size_t, std::size_t>> keys(pixel_gate.size());
  echoimage::runtime::parallel_for(
      pool, grid, [&](std::size_t row, std::size_t) {
        for (std::size_t col = 0; col < grid; ++col) {
          const double dk =
              grid_center(config, row, col, plane_distance_m).norm();
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
          keys[row * grid + col] = {first, last > first ? last - first : 0};
        }
      });
  // Distinct keys in first-seen pixel order. `head` holds, per first
  // sample, the first gate starting there; `next` chains the gates that
  // share a first sample but differ in count.
  constexpr std::uint32_t kNone = ~std::uint32_t{0};
  std::size_t min_first = keys.front().first, max_first = min_first;
  for (const auto& key : keys) {
    min_first = std::min(min_first, key.first);
    max_first = std::max(max_first, key.first);
  }
  std::vector<std::uint32_t> head(max_first - min_first + 1, kNone);
  std::vector<std::uint32_t> next;
  for (std::size_t k = 0; k < keys.size(); ++k) {
    std::uint32_t* link = &head[keys[k].first - min_first];
    while (*link != kNone && gates[*link] != keys[k]) link = &next[*link];
    if (*link == kNone) {
      *link = static_cast<std::uint32_t>(gates.size());
      gates.push_back(keys[k]);
      next.push_back(kNone);
    }
    pixel_gate[k] = *link;
  }
  window_first = gates.front().first;
  for (const auto& [first, count] : gates) {
    window_first = std::min(window_first, first);
    window_last = std::max(window_last, first + count);
  }
}

std::size_t AcousticImager::fft_length_for(std::size_t beep_length) const {
  const std::size_t tmpl = subband_templates_.front().size();
  return beep_length == 0 || tmpl == 0
             ? 0
             : echoimage::dsp::matched_filter_fft_length(beep_length, tmpl);
}

std::vector<ComplexSignal> AcousticImager::template_spectra(
    std::size_t fft_length) const {
  // An empty spectrum makes the matched filter output zeros, as an empty
  // template or beep does.
  std::vector<ComplexSignal> spectra(config_.num_subbands);
  if (fft_length == 0) return spectra;
  for (std::size_t band = 0; band < spectra.size(); ++band)
    spectra[band] = echoimage::dsp::template_spectrum(subband_templates_[band],
                                                      fft_length);
  return spectra;
}

AcousticImager::CaptureContext AcousticImager::capture_context(
    units::Meters plane_distance, std::size_t beep_length,
    double tau_direct_s, const MultiChannelSignal& noise_only,
    double tau_echo_s, const echoimage::array::ChannelMask& active_mask) const {
  if (plane_distance.value() <= 0.0)
    throw std::invalid_argument("AcousticImager: plane distance must be > 0");
  EI_SPAN(obs::Observability::tracer_of(obs_.get()), "imaging.capture");
  CaptureContext context(GateTable(config_, plane_distance, tau_direct_s,
                                   tau_echo_s, pool_.get()));
  context.plane_distance_m_ = plane_distance.value();
  context.tau_direct_s_ = tau_direct_s;
  context.active_mask_ = active_mask;

  // The noise path: the band-pass of every channel in lockstep on the
  // calling thread, then on the pool one task per band for its subband
  // filter (lockstep again), analytic signals and covariance, its weight
  // solver (masked load and inverse) and its template spectrum. A band's
  // temporaries are filtered and analytic copies of the noise gap, about
  // 0.3 MB at 2,048 samples.
  const std::size_t mics = geometry_.num_mics();
  const std::size_t num_bands = config_.num_subbands;
  const bool have_noise =
      noise_only.num_channels() == mics && noise_only.length() > 0;
  MultiChannelSignal noise_f;
  if (have_noise)
    noise_f.channels = bandpass_filter_.filtfilt_multi(noise_only.channels);
  if (config_.pulse_compression) {
    context.fft_length_ = fft_length_for(beep_length);
    context.spectra_.resize(num_bands);
  }
  std::vector<std::optional<echoimage::array::WeightSolver>> solvers(
      num_bands);
  echoimage::runtime::parallel_for(
      pool_.get(), num_bands, [&](std::size_t band, std::size_t) {
        echoimage::array::CMatrix covariance;
        if (!have_noise) {
          covariance = echoimage::array::white_noise_covariance(mics);
        } else if (num_bands > 1) {
          MultiChannelSignal band_noise;
          band_noise.channels =
              subband_filters_[band].filtfilt_multi(noise_f.channels);
          covariance = echoimage::array::noise_covariance_of(band_noise);
        } else {
          covariance = echoimage::array::noise_covariance_of(noise_f);
        }
        solvers[band].emplace(geometry_, covariance,
                              units::Hertz{subband_centers_[band]},
                              config_.speed_of_sound, active_mask);
        if (context.fft_length_ > 0)
          context.spectra_[band] = echoimage::dsp::template_spectrum(
              subband_templates_[band], context.fft_length_);
      });
  context.solvers_.reserve(num_bands);
  for (std::optional<echoimage::array::WeightSolver>& solver : solvers)
    context.solvers_.push_back(std::move(*solver));
  return context;
}

std::vector<std::vector<Matrix2D>> AcousticImager::band_energies(
    std::span<const MultiChannelSignal> beeps,
    const CaptureContext& context) const {
  const obs::Tracer* const tracer = obs::Observability::tracer_of(obs_.get());
  EI_SPAN_NAMED(construct_span, tracer, "imaging.construct");
  const std::size_t num_beeps = beeps.size();
  const std::size_t num_bands = config_.num_subbands;
  const std::size_t mics = geometry_.num_mics();
  const std::size_t grid = config_.grid_size;
  const GateTable& gates = context.gates_;
  const std::size_t num_gates = gates.gates.size();
  const double mix = std::clamp(config_.incoherent_mix, 0.0, 1.0);
  for (const MultiChannelSignal& beep : beeps) {
    if (!beep.is_rectangular())
      throw std::invalid_argument("AcousticImager: ragged multichannel beep");
    if (beep.num_channels() != mics)
      throw std::invalid_argument("AcousticImager: beep/mic channel mismatch");
  }
  if (num_beeps == 0) return {};
  if (images_counter_ != nullptr) images_counter_->add(num_beeps);
  if (bands_counter_ != nullptr) bands_counter_->add(num_beeps * num_bands);

  // Per beep, on the calling thread: the template spectra at this beep's
  // FFT length and the gate window. Every (beep, band) slot below is
  // beep-major: slot = beep * bands + band. The beep, prepare and band
  // spans stay open through the regions that do their work; region 1 and
  // 2 tasks hang off the band spans through explicit parents, whichever
  // worker runs them.
  struct BeepFront {
    std::vector<echoimage::dsp::Signal> filtered;  ///< per active channel
    std::vector<ComplexSignal> own_spectra;
    const std::vector<ComplexSignal>* spectra = nullptr;
    std::size_t first = 0;  ///< gate window [first, last) of this beep
    std::size_t last = 0;
  };
  std::vector<BeepFront> fronts(num_beeps);
  std::vector<std::optional<obs::ScopedSpan>> beep_spans(num_beeps);
  std::vector<std::optional<obs::ScopedSpan>> prepare_spans(num_beeps);
  std::vector<std::optional<obs::ScopedSpan>> band_spans(num_beeps * num_bands);
  for (std::size_t b = 0; b < num_beeps; ++b) {
    beep_spans[b].emplace(tracer, "imaging.beep", b, construct_span.handle());
    prepare_spans[b].emplace(tracer, "imaging.prepare");
    BeepFront& front = fronts[b];
    front.spectra = &context.spectra_;
    const std::size_t length = beeps[b].length();
    const std::size_t fft = fft_length_for(length);
    if (config_.pulse_compression && fft != context.fft_length_) {
      front.own_spectra = template_spectra(fft);
      front.spectra = &front.own_spectra;
    }
    // The sweep reads only the samples inside some gate: keep [first,
    // last) of each channel and shift every gate by `first`. Gates past
    // the beep's end stay empty, as they are on the full channel.
    front.last = std::min(length, gates.window_last);
    front.first = std::min(gates.window_first, front.last);
    for (std::size_t band = 0; band < num_bands; ++band)
      band_spans[b * num_bands + band].emplace(tracer, "imaging.band", band,
                                               beep_spans[b]->handle());
  }

  // Region 0, per beep: the active channels band-passed in lockstep, then
  // the direct speaker->mic chirp zeroed (self-interference removal: it is
  // ~50 dB above body echoes and its analytic-signal tails would otherwise
  // smear across the echo window). Channels the mask drops are never
  // filtered.
  const echoimage::array::ChannelMask& mask = context.active_mask_;
  std::vector<std::size_t> active;
  for (std::size_t c = 0; c < mics; ++c)
    if (mask.empty() || mask[c]) active.push_back(c);
  const std::size_t direct_end =
      config_.suppress_direct
          ? echoimage::dsp::seconds_to_samples(
                context.tau_direct_s_ + config_.chirp.duration.value() +
                    config_.direct_guard_s,
                config_.sample_rate)
          : 0;
  echoimage::runtime::parallel_for(
      pool_.get(), num_beeps, [&](std::size_t b, std::size_t) {
        std::vector<echoimage::dsp::Signal>& filtered = fronts[b].filtered;
        if (active.size() == mics) {
          filtered = bandpass_filter_.filtfilt_multi(beeps[b].channels);
        } else {
          std::vector<echoimage::dsp::Signal> channels;
          channels.reserve(active.size());
          for (const std::size_t c : active)
            channels.push_back(beeps[b].channels[c]);
          filtered = bandpass_filter_.filtfilt_multi(channels);
        }
        for (echoimage::dsp::Signal& x : filtered)
          std::fill_n(x.begin(), std::min(direct_end, x.size()), 0.0);
      });
  prepare_spans.clear();

  // Region 1, per (beep, band): the subband filter across the active
  // channels in lockstep; each beep's band-passed copy is freed once its
  // bands are filtered. Then per (beep, band, active channel): the
  // analytic signal and pulse compression of one channel, trimmed to the
  // gate window, each subband channel freed as its task finishes.
  // Matched filtering commutes with the linear beamformer, so compressing
  // per channel once is equivalent to compressing every steered output.
  std::vector<std::vector<echoimage::dsp::Signal>> subband(
      num_bands > 1 ? num_beeps * num_bands : 0);
  echoimage::runtime::parallel_for(
      pool_.get(), subband.size(), [&](std::size_t slot, std::size_t) {
        subband[slot] = subband_filters_[slot % num_bands].filtfilt_multi(
            fronts[slot / num_bands].filtered);
      });
  if (num_bands > 1)
    for (BeepFront& front : fronts) front.filtered = {};
  std::vector<std::vector<ComplexSignal>> windows(
      num_beeps * num_bands, std::vector<ComplexSignal>(active.size()));
  echoimage::runtime::parallel_for(
      pool_.get(), num_beeps * num_bands * active.size(),
      [&](std::size_t task, std::size_t) {
        const std::size_t slot = task / active.size();
        const std::size_t i = task % active.size();
        const std::size_t band = slot % num_bands;
        EI_SPAN(tracer, "imaging.channel", active[i],
                band_spans[slot]->handle());
        const BeepFront& front = fronts[slot / num_bands];
        ComplexSignal a = echoimage::dsp::analytic_signal(
            num_bands > 1 ? subband[slot][i] : front.filtered[i]);
        if (num_bands > 1) subband[slot][i] = {};
        if (config_.pulse_compression)
          a = echoimage::dsp::matched_filter_complex(a,
                                                     (*front.spectra)[band]);
        windows[slot][i].assign(
            a.begin() + static_cast<std::ptrdiff_t>(front.first),
            a.begin() + static_cast<std::ptrdiff_t>(front.last));
      });
  for (BeepFront& front : fronts) front.filtered = {};

  // Region 2, per (beep, band): per distinct gate, the direction-free
  // incoherent energy and the packed form of the gate's numerator matrix
  // B_g (array::packed_form_size), which is all the sweep needs of the
  // beep. The window's per-sample products are formed once per task and
  // each gate covariance R_g sums its rows of them; R_g lives only until
  // its form is packed, and each task frees its windows and products when
  // its terms are done.
  const std::size_t form_size =
      echoimage::array::packed_form_size(active.size());
  struct GateTerms {
    std::vector<double> incoherent;  ///< per gate
    std::vector<double> forms;       ///< per gate, form_size doubles each
  };
  std::vector<GateTerms> terms(num_beeps * num_bands);
  echoimage::runtime::parallel_for(
      pool_.get(), num_beeps * num_bands, [&](std::size_t slot, std::size_t) {
        EI_SPAN(tracer, "imaging.beamformer", slot % num_bands,
                band_spans[slot]->handle());
        const std::vector<ComplexSignal>& x = windows[slot];
        const std::size_t first = fronts[slot / num_bands].first;
        GateTerms& t = terms[slot];
        if (mix > 0.0) {
          t.incoherent.resize(num_gates);
          for (std::size_t g = 0; g < num_gates; ++g)
            t.incoherent[g] = echoimage::array::incoherent_energy(
                x, gates.gates[g].first - first, gates.gates[g].second);
        }
        if (mix < 1.0) {
          const echoimage::array::WeightSolver& solver =
              context.solvers_[slot % num_bands];
          const echoimage::array::GateProducts products(x);
          t.forms.resize(num_gates * form_size);
          for (std::size_t g = 0; g < num_gates; ++g)
            solver.pack_gate_form(
                products.covariance(gates.gates[g].first - first,
                                    gates.gates[g].second),
                config_.use_mvdr, t.forms.data() + g * form_size);
        }
        windows[slot] = {};
      });
  band_spans.clear();
  beep_spans.clear();

  // Region 3, per grid row across every band and beep: each pixel's unit
  // direction and the roots of its steering ladder (band 0's vector and
  // the step between bands, from cos and sin) once per capture, then one
  // sweep-kernel call per row (simd closed_form_row_f64): per band each
  // pixel's steering vector, pair products and denominator, per beep its
  // coherent energy in closed form, a^H B_g a / den^2. Each task writes
  // its own row of every image, so the images are bit-identical for any
  // worker count, and a beep's pixels read only that beep's terms, so they
  // do not depend on the other beeps of the pass. One task per row is a
  // fixed grain, so the recorded `imaging.grid_chunk[row]` spans are
  // identical for every worker count too (the determinism contract in
  // obs/trace.hpp).
  const echoimage::array::ArrayGeometry subarray = geometry_.subarray(mask);
  const double speed = config_.speed_of_sound.value();
  const double k0 = 2.0 * std::numbers::pi * subband_centers_.front() / speed;
  const double dk = num_bands > 1 ? 2.0 * std::numbers::pi *
                                        (subband_centers_[1] -
                                         subband_centers_[0]) /
                                        speed
                                  : 0.0;
  std::vector<std::vector<Matrix2D>> energies(
      num_beeps, std::vector<Matrix2D>(num_bands, Matrix2D(grid, grid)));
  {
    EI_SPAN_NAMED(sweep_span, tracer, "imaging.grid_sweep");
    const std::size_t slots = num_beeps * num_bands;
    std::vector<const double*> inverse(num_bands);
    for (std::size_t band = 0; band < num_bands; ++band)
      inverse[band] = context.solvers_[band].packed_inverse();
    std::vector<const double*> forms(slots), incoherent(slots);
    for (std::size_t slot = 0; slot < slots; ++slot) {
      forms[slot] = terms[slot].forms.data();
      incoherent[slot] = terms[slot].incoherent.data();
    }
    echoimage::simd::SweepRow shape;
    shape.pixels = grid;
    shape.mics = active.size();
    shape.bands = num_bands;
    shape.beeps = num_beeps;
    shape.inverse = config_.use_mvdr ? inverse.data() : nullptr;
    shape.forms = forms.data();
    shape.incoherent = incoherent.data();
    shape.mix = mix;
    struct RowScratch {
      std::vector<double> base, step;  ///< per pixel, 2M' doubles each
      std::vector<double*> out;        ///< per slot
    };
    echoimage::runtime::ScratchArena<RowScratch> arena(
        pool_ != nullptr ? pool_->num_workers() : 1);
    const echoimage::simd::KernelTable& kernels = echoimage::simd::kernels();
    echoimage::runtime::parallel_for(
        pool_.get(), grid, [&](std::size_t row, std::size_t worker) {
          EI_SPAN(tracer, "imaging.grid_chunk", row, sweep_span.handle());
          RowScratch& s = arena.local(worker);
          const std::size_t width = 2 * active.size();
          s.base.resize(grid * width);
          s.step.resize(grid * width);
          s.out.resize(slots);
          if (mix < 1.0)
            for (std::size_t col = 0; col < grid; ++col)
              echoimage::array::ladder_roots(
                  subarray,
                  grid_center(config_, row, col, context.plane_distance_m_)
                      .normalized(),
                  k0, dk, num_bands, s.base.data() + col * width,
                  s.step.data() + col * width);
          for (std::size_t b = 0; b < num_beeps; ++b)
            for (std::size_t band = 0; band < num_bands; ++band)
              s.out[b * num_bands + band] =
                  energies[b][band].data().data() + row * grid;
          echoimage::simd::SweepRow r = shape;
          r.base = s.base.data();
          r.step = s.step.data();
          r.gate = gates.pixel_gate.data() + row * grid;
          r.out = s.out.data();
          kernels.closed_form_row_f64(r);
        });
  }
  return energies;
}

std::vector<AcousticImage> AcousticImager::construct_capture(
    std::span<const MultiChannelSignal> beeps,
    const CaptureContext& context) const {
  std::vector<std::vector<Matrix2D>> energies = band_energies(beeps, context);
  std::vector<AcousticImage> images(energies.size());
  for (std::size_t b = 0; b < energies.size(); ++b)
    images[b].bands = std::move(energies[b]);
  // L2 norm of the gated segment: sqrt of the energy, one task per (beep,
  // band) image.
  const std::size_t num_bands = config_.num_subbands;
  echoimage::runtime::parallel_for(
      pool_.get(), images.size() * num_bands,
      [&](std::size_t slot, std::size_t) {
        for (double& v : images[slot / num_bands].bands[slot % num_bands].data())
          v = std::sqrt(v);
      });
  return images;
}

Matrix2D AcousticImager::construct(
    const MultiChannelSignal& beep, units::Meters plane_distance,
    double tau_direct_s, const MultiChannelSignal& noise_only,
    double tau_echo_s, const echoimage::array::ChannelMask& active_mask) const {
  const std::vector<Matrix2D> bands =
      band_energies({&beep, 1},
                    capture_context(plane_distance, beep.length(),
                                    tau_direct_s, noise_only, tau_echo_s,
                                    active_mask))
          .front();
  // Frequency compounding: band energies summed in band order from 0.0,
  // then the L2 norm of the compounded energy.
  Matrix2D image(config_.grid_size, config_.grid_size);
  for (const Matrix2D& band : bands)
    for (std::size_t k = 0; k < image.size(); ++k)
      image.data()[k] += band.data()[k];
  for (double& v : image.data()) v = std::sqrt(v);
  return image;
}

std::vector<Matrix2D> AcousticImager::construct_bands(
    const MultiChannelSignal& beep, units::Meters plane_distance,
    double tau_direct_s, const MultiChannelSignal& noise_only,
    double tau_echo_s, const echoimage::array::ChannelMask& active_mask) const {
  return std::move(
      construct_capture({&beep, 1},
                        capture_context(plane_distance, beep.length(),
                                        tau_direct_s, noise_only, tau_echo_s,
                                        active_mask))
          .front()
          .bands);
}

}  // namespace echoimage::core
