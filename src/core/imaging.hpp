// Acoustic image construction (paper Sec. V-C).
//
// Given the estimated user-array distance D_p, a virtual square imaging
// plane parallel to the x-o-z plane is placed at y = D_p and divided into
// K = G x G grids. For each grid k the array is steered to the grid's
// direction (Eq. 11-12); the pixel value is the L2 norm of the beamformed
// segment time-gated around the grid's round-trip delay 2 D_k / c, which
// isolates echoes whose path length matches the grid — echoes from clutter
// elsewhere fail the gate and are suppressed.
//
// That gated energy sum_{t in g} |w^H x_t|^2 equals w^H R_g w, where the
// gate covariance R_g = sum_{t in g} x_t x_t^H is one M x M matrix shared
// by every pixel whose gate is g. With the MVDR weights of Eq. 8 it has a
// closed form, w^H R_g w = a^H B_g a / (a^H R^-1 a)^2 with B_g = (R^-1)^H
// R_g R^-1 (delay-and-sum: a^H R_g a / M^2), so no pixel solves a weight.
// Weights and data are kept apart: the capture context holds one
// array::WeightSolver per band, and a beep contributes only its gate
// statistics. The imager therefore images all beeps of a capture in one
// pass: R_g once per (beep, band, distinct gate), summed from the
// window's per-sample products and packed at once into B_g; each pixel's
// unit direction and the roots of its subband ladder once per capture;
// then one sweep-kernel call per grid row (simd/kernels.hpp) for each
// pixel's steering vectors, pair products and denominator per band and
// a^H B_g a per beep. The gate sums, the sweep and the CNN's convolution
// run in vector lanes where the CPU has them, bit for bit as the scalar
// lane. Before any gate, each beep's front end band-passes its active
// channels in lockstep, then per band runs the subband filter in lockstep
// and, per channel, the analytic signal and the matched filter.
// A beep's image depends only on that beep and the capture context, so
// the one-beep calls reproduce every beep of a pass bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "array/beamformer.hpp"
#include "core/distance.hpp"
#include "dsp/biquad.hpp"
#include "ml/tensor.hpp"
#include "obs/observability.hpp"
#include "runtime/thread_pool.hpp"

namespace echoimage::array {
class WeightCache;
}

namespace echoimage::core {

namespace units = echoimage::units;
using echoimage::ml::Matrix2D;

struct ImagingConfig {
  double sample_rate = 48000.0;
  echoimage::dsp::ChirpParams chirp{};
  double bandpass_low_hz = 2000.0;
  double bandpass_high_hz = 3000.0;
  std::size_t bandpass_order = 4;
  /// Image resolution: grid_size x grid_size grids of grid_spacing_m
  /// (paper: 180x180 of 1 cm; default here 48x48 of 1.5 cm for tractable
  /// full-population studies — see DESIGN.md).
  std::size_t grid_size = 48;
  double grid_spacing_m = 0.015;
  /// Vertical center of the imaging plane relative to the array (m).
  double plane_center_z_m = 0.15;
  /// Time-gate slack d' on each side of the grid's round-trip delay (s).
  double gate_halfwidth_s = 0.0015;
  bool use_mvdr = true;  ///< false = delay-and-sum ablation
  /// Zero out the direct speaker->mic sound before imaging. The direct
  /// chirp is ~50 dB above body echoes and the Hilbert transform smears its
  /// analytic tails across the echo window, so self-interference removal
  /// (standard in active-sonar front ends) markedly sharpens the image.
  bool suppress_direct = true;
  double direct_guard_s = 0.0005;  ///< extra zeroed margin after the chirp
  /// Pulse compression: matched-filter each channel against the chirp
  /// before beamforming and gating (correlation and beamforming commute).
  /// Compresses each echo to ~1/bandwidth, giving ~17 cm range resolution
  /// through the gate and full processing gain against noise. Off = the
  /// naive raw-signal gating baseline for ablations.
  bool pulse_compression = true;
  /// Blend of incoherent (phase-free, per-mic) gated energy into each
  /// pixel: pixel^2 = (1-mix)*coherent + mix*incoherent. The incoherent
  /// term is a pure range profile — highly stable across small pose
  /// changes — while the coherent term carries the angular detail; mixing
  /// trades resolution for session robustness. 0 = paper's fully coherent
  /// pixel.
  double incoherent_mix = 0.85;
  /// Anchor the range gates to the measured echo time rather than to
  /// absolute round-trip delays: gate(k) = tau_echo + 2 (D_k - D_p) / c.
  /// Any constant bias in echo detection then cancels out of the image,
  /// leaving only second-order sensitivity to the distance estimate.
  bool anchor_to_echo = false;
  /// Number of spectral subbands. `construct_bands` returns one image per
  /// subband — body materials reflect 2 kHz and 3 kHz differently, so the
  /// per-band images carry an independent spectral identity channel.
  /// `construct` sums band energies instead (frequency compounding).
  /// 1 = single full-band image.
  std::size_t num_subbands = 5;
  units::MetersPerSecond speed_of_sound = echoimage::array::kSpeedOfSoundMps;
  /// Workers of the imager's pool, which runs each capture's noise path
  /// (per band), per-beep band-pass, per-(beep, band) subband filter,
  /// per-(beep, band, channel) analytic signal and matched filter,
  /// per-(beep, band) gate terms, per-row grid sweep, and the pipeline's
  /// per-band CNN. 1 = the historical serial path (no pool, no
  /// synchronization); 0 = one per hardware thread. Any value produces
  /// bit-identical images: every task writes
  /// its own slots and bands accumulate in a fixed order (see DESIGN.md,
  /// "Threading model").
  std::size_t num_threads = 1;
};

/// One acoustic image: a stack of per-spectral-band grids. Single-band
/// configurations simply have bands.size() == 1.
struct AcousticImage {
  std::vector<Matrix2D> bands;
};

/// Grid geometry helper shared with the data augmenter: distance from the
/// k-th grid (row r, col c) of a plane at distance D_p to the origin.
[[nodiscard]] units::Meters grid_distance(const ImagingConfig& config,
                                          std::size_t row, std::size_t col,
                                          units::Meters plane_distance);

class AcousticImager {
 public:
  class CaptureContext;

  AcousticImager(ImagingConfig config, ArrayGeometry geometry);

  [[nodiscard]] const ImagingConfig& config() const { return config_; }

  /// Worker pool of the imaging loop (null on the serial path). Shared so
  /// sibling stages (the augmenter, the pipeline's CNN) can reuse the same
  /// workers. Regions never nest: nothing calls into this pool from inside
  /// one of its own regions.
  [[nodiscard]] const std::shared_ptr<echoimage::runtime::ThreadPool>& pool()
      const {
    return pool_;
  }

  /// Always null: the imager solves every weight inline and keeps no
  /// weight cache. Kept for callers that still report cache accounting.
  [[nodiscard]] const echoimage::array::WeightCache* weight_cache() const {
    return nullptr;
  }

  /// Wire this imager into the system observability bundle: capture,
  /// per-beep, per-(beep, band), per-(beep, band, channel) and per-grid-row
  /// spans and image/band counters (counted per beep). Null (the default)
  /// keeps every site a dead branch. Call before first use.
  void attach_observability(std::shared_ptr<const obs::Observability> obs);

  /// What every beep of one capture shares, built once per capture (the
  /// noise band-pass across channels in lockstep, then one pool task per
  /// band): each band's weight solver (band-pass, subband filter and
  /// covariance of `noise_only`, reduced to `active_mask` and inverted),
  /// each band's matched-filter template spectrum at the FFT length of a
  /// `beep_length`-sample beep, and the gate table of the plane at
  /// `plane_distance` for the given time anchors. `tau_direct_s`,
  /// `noise_only`, `tau_echo_s` and `active_mask` mean what they mean for
  /// `construct`. The context is immutable, so any number of
  /// `construct_capture` calls may share it.
  [[nodiscard]] CaptureContext capture_context(
      units::Meters plane_distance, std::size_t beep_length,
      double tau_direct_s = 0.0, const MultiChannelSignal& noise_only = {},
      double tau_echo_s = -1.0,
      const echoimage::array::ChannelMask& active_mask = {}) const;

  /// Per-subband images of every beep of the context's capture, in one
  /// imaging pass over the pool (one image per beep, in beep order). Each
  /// beep's image depends only on that beep and the context: it is
  /// bit-identical to a one-beep pass on the same context and to
  /// `construct_bands(beep, plane_distance, ...)` with the arguments the
  /// context was built from. A beep whose length differs from the
  /// context's `beep_length` recomputes its template spectra. No beeps,
  /// no images.
  [[nodiscard]] std::vector<AcousticImage> construct_capture(
      std::span<const MultiChannelSignal> beeps,
      const CaptureContext& context) const;

  /// Construct the acoustic image AI_l from one beep capture. `tau_direct_s`
  /// anchors the time axis (emission time = direct-path arrival minus the
  /// speaker-mic flight, which is negligible at array scale); `noise_only`
  /// optionally feeds the MVDR noise covariance.
  /// `tau_echo_s` (< 0 = unknown) enables echo anchoring when
  /// `anchor_to_echo` is set. `active_mask` (empty = all) images with the
  /// surviving subarray when the health gate has condemned channels.
  /// Builds a one-beep capture context per call and sums the band energies
  /// (frequency compounding).
  [[nodiscard]] Matrix2D construct(
      const MultiChannelSignal& beep, units::Meters plane_distance,
      double tau_direct_s = 0.0, const MultiChannelSignal& noise_only = {},
      double tau_echo_s = -1.0,
      const echoimage::array::ChannelMask& active_mask = {}) const;

  /// Per-subband images: same computation as `construct` but each spectral
  /// band is returned separately so the classifier sees the body's
  /// frequency-dependent reflectivity. Builds a one-beep capture context
  /// per call; the pipeline builds one per capture and images all its
  /// beeps in one `construct_capture` pass instead.
  [[nodiscard]] std::vector<Matrix2D> construct_bands(
      const MultiChannelSignal& beep, units::Meters plane_distance,
      double tau_direct_s = 0.0,
      const MultiChannelSignal& noise_only = {},
      double tau_echo_s = -1.0,
      const echoimage::array::ChannelMask& active_mask = {}) const;

 private:
  /// Every pixel's range gate for one plane and time anchor.
  struct GateTable;
  /// Per-beep, per-band gated energy images (before the square root): the
  /// imaging pass behind `construct_capture`.
  [[nodiscard]] std::vector<std::vector<Matrix2D>> band_energies(
      std::span<const MultiChannelSignal> beeps,
      const CaptureContext& context) const;
  /// Matched-filter FFT length of a `beep_length`-sample beep (0 when the
  /// beep or the template is empty).
  [[nodiscard]] std::size_t fft_length_for(std::size_t beep_length) const;
  /// Each band's template spectrum at `fft_length`.
  [[nodiscard]] std::vector<echoimage::dsp::ComplexSignal> template_spectra(
      std::size_t fft_length) const;

  ImagingConfig config_;
  ArrayGeometry geometry_;
  /// Shared across copies of this imager: the pool serializes overlapping
  /// regions internally.
  std::shared_ptr<echoimage::runtime::ThreadPool> pool_;
  std::shared_ptr<const obs::Observability> obs_;
  const obs::Counter* images_counter_ = nullptr;
  const obs::Counter* bands_counter_ = nullptr;
  echoimage::dsp::SosCascade bandpass_filter_;
  std::vector<echoimage::dsp::SosCascade> subband_filters_;
  std::vector<double> subband_centers_;
  std::vector<echoimage::dsp::Signal> subband_templates_;  ///< per-band chirp
};

// A pixel's range gate depends only on its distance to the array, so a
// plane has a few hundred distinct gates against G^2 pixels (32,400 at
// paper scale): the incoherent energy and the gate covariance R_g run once
// per distinct gate, on exactly the (first, count) window the pixel would
// have passed.
struct AcousticImager::GateTable {
  /// Each pixel's key on `pool` (null: inline), one task per grid row;
  /// the distinct keys in first-seen pixel order.
  GateTable(const ImagingConfig& config, units::Meters plane_distance,
            double tau_direct_s, double tau_echo_s,
            echoimage::runtime::ThreadPool* pool);

  std::vector<std::pair<std::size_t, std::size_t>> gates;  ///< (first, count)
  std::vector<std::uint32_t> pixel_gate;  ///< pixel -> index into gates
  /// [window_first, window_last) covers every gate: the only samples of a
  /// beep the sweep reads.
  std::size_t window_first = 0;
  std::size_t window_last = 0;
};

class AcousticImager::CaptureContext {
 private:
  friend class AcousticImager;
  explicit CaptureContext(GateTable gates) : gates_(std::move(gates)) {}

  double plane_distance_m_ = 0.0;
  double tau_direct_s_ = 0.0;
  echoimage::array::ChannelMask active_mask_;
  std::vector<echoimage::array::WeightSolver> solvers_;  ///< per band
  /// Matched-filter FFT length of a `beep_length` beep, and each band's
  /// template spectrum at it (empty without pulse compression).
  std::size_t fft_length_ = 0;
  std::vector<echoimage::dsp::ComplexSignal> spectra_;
  GateTable gates_;
};

}  // namespace echoimage::core
