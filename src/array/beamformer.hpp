// Beamformer weight computation and application (paper Sec. III-D).
//
// One engine, steerable to an arbitrary Direction: narrowband MVDR /
// delay-and-sum, i.e. complex weights at a (sub)band's center frequency
// applied directly to per-channel analytic signals (one weight vector per
// virtual-plane grid). Imaging and the distance estimator both run on it.
#pragma once

#include <cstddef>
#include <vector>

#include "array/covariance.hpp"
#include "array/geometry.hpp"
#include "array/steering.hpp"
#include "dsp/signal.hpp"

namespace echoimage::array {

using echoimage::dsp::MultiChannelSignal;
using echoimage::dsp::Signal;

/// Delay-and-sum weights w = a / M (the MVDR solution for spatially white
/// noise).
[[nodiscard]] std::vector<Complex> das_weights(
    const std::vector<Complex>& steering);

/// Beamformer output y(t) = w^H x(t) on per-channel analytic signals.
/// Channels may differ in length; the output has the maximum length with
/// missing samples treated as zero.
[[nodiscard]] echoimage::dsp::ComplexSignal apply_weights(
    const std::vector<echoimage::dsp::ComplexSignal>& channels,
    const std::vector<Complex>& w);

/// Narrowband steering engine: computes per-channel analytic signals and the
/// (loaded, inverted) noise covariance once, then steers to many directions
/// cheaply. This is the workhorse of acoustic-image construction, where one
/// capture is steered to every grid of the imaging plane.
class NarrowbandBeamformer {
 public:
  /// `bandpassed` is the band-pass-filtered capture; `noise_covariance` is
  /// estimated externally, e.g. from a separate noise-only capture
  /// (estimating it from a prefix of the same buffer is biased: the Hilbert
  /// transform is nonlocal, so a strong chirp later in the buffer leaks
  /// coherent tails into the prefix), or white_noise_covariance() for the
  /// white-noise assumption. The covariance is full-size. `active_mask`
  /// (empty = all) drops faulty channels before anything else: the
  /// beamformer then operates as the surviving subarray, so one dead
  /// microphone cannot poison the covariance of Eq. 8.
  NarrowbandBeamformer(const MultiChannelSignal& bandpassed,
                       double sample_rate, units::Hertz center_freq,
                       ArrayGeometry geom, CMatrix noise_covariance,
                       units::MetersPerSecond speed_of_sound = kSpeedOfSoundMps,
                       const ChannelMask& active_mask = {});

  /// Variant taking per-channel complex (analytic or pulse-compressed)
  /// signals directly.
  NarrowbandBeamformer(std::vector<echoimage::dsp::ComplexSignal> channels,
                       double sample_rate, units::Hertz center_freq,
                       ArrayGeometry geom, CMatrix noise_covariance,
                       units::MetersPerSecond speed_of_sound = kSpeedOfSoundMps,
                       const ChannelMask& active_mask = {});

  /// Copies rebuild the kernel-facing channel-pointer array against their
  /// own buffers (the default member-wise copy would leave it aimed into
  /// the source object). Moves transfer the heap buffers wholesale, so the
  /// pointer array stays valid and the defaults are correct.
  NarrowbandBeamformer(const NarrowbandBeamformer& other);
  NarrowbandBeamformer& operator=(const NarrowbandBeamformer& other);
  NarrowbandBeamformer(NarrowbandBeamformer&&) = default;
  NarrowbandBeamformer& operator=(NarrowbandBeamformer&&) = default;

  /// Geometry of the (possibly reduced) subarray this beamformer runs on.
  [[nodiscard]] const ArrayGeometry& geometry() const { return geom_; }
  [[nodiscard]] double sample_rate() const { return sample_rate_; }
  [[nodiscard]] double center_frequency_hz() const { return center_freq_hz_; }
  [[nodiscard]] std::size_t length() const { return length_; }
  [[nodiscard]] const std::vector<echoimage::dsp::ComplexSignal>& analytic()
      const {
    return analytic_;
  }
  [[nodiscard]] const CMatrix& noise_covariance() const { return noise_cov_; }

  /// MVDR weights toward `dir` at the center frequency.
  [[nodiscard]] std::vector<Complex> weights_mvdr(const Direction& dir) const;

  /// Delay-and-sum weights toward `dir`.
  [[nodiscard]] std::vector<Complex> weights_das(const Direction& dir) const;

  /// Allocation-reusing variant for hot loops: weights toward `dir`
  /// (MVDR or delay-and-sum) written into `out`, with `scratch` holding
  /// the steering vector. Bit-identical to the returning overloads.
  void compute_weights(const Direction& dir, bool use_mvdr,
                       std::vector<Complex>& scratch,
                       std::vector<Complex>& out) const;

  /// Steered analytic output y(t) = w^H x(t) with MVDR weights.
  [[nodiscard]] echoimage::dsp::ComplexSignal steer(const Direction& dir) const;

  /// Steered analytic output with delay-and-sum weights.
  [[nodiscard]] echoimage::dsp::ComplexSignal steer_das(
      const Direction& dir) const;

  /// Gate covariance R_g = sum_t x(t) x(t)^H over the samples of
  /// [first, first+count) inside the capture (an empty range gives zeros),
  /// over the active channels: R_g[i][j] = sum_t x_i(t) conj(x_j(t)) summed
  /// in ascending t for j >= i, and R_g[j][i] = conj(R_g[i][j]). Every
  /// pixel sharing the gate reads its steered energy from this one matrix
  /// (see `gated_energy`).
  [[nodiscard]] CMatrix gate_covariance(std::size_t first,
                                        std::size_t count) const;

  /// Incoherent (phase-free) energy: mean over microphones of the per-
  /// channel energy in [first, first+count). Direction-independent — pure
  /// range information, immune to inter-channel phase (speckle) flips.
  [[nodiscard]] double incoherent_energy(std::size_t first,
                                         std::size_t count) const;

 private:
  /// Builds the kernel-facing channel pointer array. Called once per
  /// constructor after analytic_ is final.
  void finalize_channels();

  ArrayGeometry geom_;
  double sample_rate_;
  double center_freq_hz_;
  double speed_of_sound_;
  std::size_t length_ = 0;
  std::vector<echoimage::dsp::ComplexSignal> analytic_;
  std::vector<const Complex*> ch_ptrs_;  ///< kernel view of analytic_
  CMatrix noise_cov_;      ///< normalized, loaded
  CMatrix noise_cov_inv_;  ///< cached inverse for weight computation
};

/// Energy of the beamformed output over a gate, sum_t |w^H x(t)|^2, read
/// from the gate's covariance as w^H R_g w = sum_i Re(conj(w_i) a_i) with
/// a_i = sum_j R_g[i][j] w_j, i and j ascending. The weight vector must
/// match the covariance's size.
[[nodiscard]] double gated_energy(const CMatrix& gate_covariance,
                                  const std::vector<Complex>& w);

/// Normalized spatial covariance of a (band-passed) noise-only capture:
/// analytic signal per channel, sample covariance over the full length.
[[nodiscard]] CMatrix noise_covariance_of(const MultiChannelSignal& noise);

/// Masked variant: covariance of the surviving subarray only (empty mask =
/// all channels).
[[nodiscard]] CMatrix noise_covariance_of(const MultiChannelSignal& noise,
                                          const ChannelMask& mask);

/// Power beampattern of a weight vector: |w^H a(dir)|^2 for each direction.
[[nodiscard]] std::vector<double> beampattern(
    const ArrayGeometry& geom, const std::vector<Complex>& w,
    units::Hertz freq, const std::vector<Direction>& dirs,
    units::MetersPerSecond speed_of_sound = kSpeedOfSoundMps);

}  // namespace echoimage::array
