// Beamformer weights and gate statistics (paper Sec. III-D).
//
// Narrowband MVDR / delay-and-sum: complex weights at a (sub)band's center
// frequency applied to per-channel analytic signals. The two halves depend
// on different things and are kept apart. The MVDR weights of Eq. 8 depend
// only on the band's noise covariance, the surviving subarray and the look
// direction: a WeightSolver holds the first two and solves any direction.
// A gate's statistics depend only on the active channels' samples: the gate
// covariance R_g and the incoherent energy are free functions over them.
// The distance estimator applies one fixed-direction weight vector to every
// beep (`apply_weights`). The imager never solves a weight: it reads each
// pixel's steered gate energy w^H R_g w in closed form (below).
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

  /// Packed form (see `packed_form_size`) of the gate's numerator matrix
  /// B_g: (R^-1)^H R_g R^-1 for MVDR, R_g / M^2 for delay-and-sum.
  /// `gate_covariance` is M x M; `out` receives packed_form_size(M)
  /// doubles.
  void pack_gate_form(const CMatrix& gate_covariance, bool use_mvdr,
                      double* out) const;

  /// The pixel's denominator from its steering pair products (see
  /// `steering_pairs`): a^H R^-1 a for MVDR, read from the Hermitian part
  /// of R^-1; 1 for delay-and-sum.
  [[nodiscard]] double denominator(const std::vector<double>& pairs,
                                   bool use_mvdr) const;

 private:
  ArrayGeometry geom_;      ///< the (possibly reduced) subarray
  CMatrix noise_cov_inv_;   ///< inverse of the masked, loaded covariance
  /// Packed form of the Hermitian part of `noise_cov_inv_`.
  std::vector<double> packed_inverse_;
  units::Hertz center_freq_;
  units::MetersPerSecond speed_of_sound_;
};

/// Gate covariance R_g = sum_t x(t) x(t)^H over the samples of
/// [first, first+count) inside the channels (an empty range gives zeros):
/// R_g[i][j] = sum_t x_i(t) conj(x_j(t)) summed in ascending t for j >= i,
/// and R_g[j][i] = conj(R_g[i][j]). `channels` are the active channels'
/// windows, all of one length. Every pixel sharing the gate reads its
/// steered energy from this one matrix, through its packed form (see
/// `packed_form_size`). Throws
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

/// Closed-form steered gate energy. With MVDR weights w = R^-1 a /
/// (a^H R^-1 a) (Eq. 8) a gate's energy w^H R_g w equals a^H B_g a /
/// (a^H R^-1 a)^2 with B_g = (R^-1)^H R_g R^-1; with delay-and-sum weights
/// w = a / M it equals a^H (R_g / M^2) a. Every entry of a steering vector
/// has unit modulus, so each Hermitian form a^H B a reads
///   tr(B) + 2 sum_{i<j} Re(B_ij conj(a_i) a_j)
/// from B's packed form and the steering vector's M(M-1)/2 pair products,
/// which serve the denominator and every gate's numerator of one pixel and
/// band. The packed form is the real trace, then the real and imaginary
/// parts of B_ij for i < j, row by row: 1 + M(M-1) doubles (31 at M = 6).
[[nodiscard]] constexpr std::size_t packed_form_size(std::size_t m) {
  return 1 + m * (m - 1);
}

/// Steering vectors toward the unit vector `unit` on the microphones of
/// `geom` at the evenly spaced wavenumbers k_b = k0 + b dk (rad/m), b = 0,
/// ..., bands - 1, band after band into `out` (bands x M): a_m(b) =
/// exp(j k_b unit . p_m), the vector `WeightSolver::compute_weights` steers
/// toward a direction whose `line_of_sight` is `unit`. Band 0 and the step
/// exp(j dk unit . p_m) come from cos and sin; each further band is the
/// previous one times the step, one complex product per microphone.
void steering_ladder(const ArrayGeometry& geom, const Vec3& unit, double k0,
                     double dk, std::size_t bands, std::vector<Complex>& out);

/// Pair products conj(a_i) a_j of the M-entry steering vector at
/// `steering`, written into `pairs` (resized to M(M-1) doubles: (re, im)
/// per pair, i < j row by row).
void steering_pairs(const Complex* steering, std::size_t m,
                    std::vector<double>& pairs);

/// a^H B a from B's packed form (packed_form_size(M) doubles) and a's
/// pair products: tr(B) + 2 q, with q = sum Re(B_ij conj(a_i) a_j) summed
/// in pair order. A zero form reads exactly zero.
[[nodiscard]] double packed_form_value(const double* form,
                                       const std::vector<double>& pairs);

/// Normalized spatial covariance of a (band-passed) noise-only capture:
/// analytic signal per channel, sample covariance over the full length.
[[nodiscard]] CMatrix noise_covariance_of(const MultiChannelSignal& noise);

/// Power beampattern of a weight vector: |w^H a(dir)|^2 for each direction.
[[nodiscard]] std::vector<double> beampattern(
    const ArrayGeometry& geom, const std::vector<Complex>& w,
    units::Hertz freq, const std::vector<Direction>& dirs,
    units::MetersPerSecond speed_of_sound = kSpeedOfSoundMps);

}  // namespace echoimage::array
