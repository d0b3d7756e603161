// Beamformer weights and gate statistics (paper Sec. III-D).
//
// Narrowband MVDR / delay-and-sum: complex weights at a (sub)band's center
// frequency applied to per-channel analytic signals. The two halves depend
// on different things and are kept apart. The MVDR weights of Eq. 8 depend
// only on the band's noise covariance, the surviving subarray and the look
// direction: a WeightSolver holds the first two and solves any direction.
// A gate's statistics depend only on the active channels' samples: the gate
// covariance R_g and the incoherent energy are free functions over them.
// The imager pairs the two per pixel as w^H R_g w (`gated_energy`); the
// distance estimator applies one fixed-direction weight vector to every
// beep (`apply_weights`).
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

/// Weights of one band toward any direction: the subarray geometry, the
/// inverse of the band's loaded noise covariance, its center frequency and
/// the speed of sound. Built once per band and capture; a plain value,
/// safe to copy and to share across threads.
class WeightSolver {
 public:
  /// `noise_covariance` is full-size (one row per microphone of `geom`):
  /// noise_covariance_of() of a separate noise-only capture, or
  /// white_noise_covariance() for the white-noise assumption. `active_mask`
  /// (empty = all) drops faulty channels first, so the solver runs as the
  /// surviving subarray and one dead microphone cannot poison the
  /// covariance of Eq. 8. The covariance is loaded by 1e-3 on its diagonal
  /// and inverted once. Throws std::invalid_argument when the covariance or
  /// the mask does not match the array, or the mask leaves no channel.
  WeightSolver(const ArrayGeometry& geom, const CMatrix& noise_covariance,
               units::Hertz center_freq,
               units::MetersPerSecond speed_of_sound = kSpeedOfSoundMps,
               const ChannelMask& active_mask = {});

  /// Weights toward `dir` at the center frequency, one per active channel:
  /// MVDR (Eq. 8), or delay-and-sum when `use_mvdr` is false. Written into
  /// `out`, with `scratch` holding the steering vector, so hot loops
  /// reuse both allocations.
  void compute_weights(const Direction& dir, bool use_mvdr,
                       std::vector<Complex>& scratch,
                       std::vector<Complex>& out) const;

 private:
  ArrayGeometry geom_;      ///< the (possibly reduced) subarray
  CMatrix noise_cov_inv_;   ///< inverse of the masked, loaded covariance
  units::Hertz center_freq_;
  units::MetersPerSecond speed_of_sound_;
};

/// Gate covariance R_g = sum_t x(t) x(t)^H over the samples of
/// [first, first+count) inside the channels (an empty range gives zeros):
/// R_g[i][j] = sum_t x_i(t) conj(x_j(t)) summed in ascending t for j >= i,
/// and R_g[j][i] = conj(R_g[i][j]). `channels` are the active channels'
/// windows, all of one length. Every pixel sharing the gate reads its
/// steered energy from this one matrix (see `gated_energy`). Throws
/// std::invalid_argument on no channels or ragged ones.
[[nodiscard]] CMatrix gate_covariance(
    const std::vector<echoimage::dsp::ComplexSignal>& channels,
    std::size_t first, std::size_t count);

/// Incoherent (phase-free) energy: mean over the channels of each one's
/// energy in [first, first+count), channels outer and samples inner, both
/// ascending. Direction-free — pure range information, immune to
/// inter-channel phase (speckle) flips. Same input contract as
/// `gate_covariance`.
[[nodiscard]] double incoherent_energy(
    const std::vector<echoimage::dsp::ComplexSignal>& channels,
    std::size_t first, std::size_t count);

/// Energy of the beamformed output over a gate, sum_t |w^H x(t)|^2, read
/// from the gate's covariance as w^H R_g w = sum_i Re(conj(w_i) a_i) with
/// a_i = sum_j R_g[i][j] w_j, i and j ascending. The weight vector must
/// match the covariance's size.
[[nodiscard]] double gated_energy(const CMatrix& gate_covariance,
                                  const std::vector<Complex>& w);

/// Normalized spatial covariance of a (band-passed) noise-only capture:
/// analytic signal per channel, sample covariance over the full length.
[[nodiscard]] CMatrix noise_covariance_of(const MultiChannelSignal& noise);

/// Power beampattern of a weight vector: |w^H a(dir)|^2 for each direction.
[[nodiscard]] std::vector<double> beampattern(
    const ArrayGeometry& geom, const std::vector<Complex>& w,
    units::Hertz freq, const std::vector<Direction>& dirs,
    units::MetersPerSecond speed_of_sound = kSpeedOfSoundMps);

}  // namespace echoimage::array
