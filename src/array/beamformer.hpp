// Beamformer weights and gate statistics (paper Sec. III-D).
//
// Narrowband MVDR / delay-and-sum: complex weights at a (sub)band's center
// frequency applied to per-channel analytic signals. The two halves depend
// on different things and are kept apart. The MVDR weights of Eq. 8 depend
// only on the band's noise covariance, the surviving subarray and the look
// direction: a WeightSolver holds the first two and solves any direction.
// A gate's statistics depend only on the active channels' samples: the gate
// covariance R_g (from a window's per-sample products, `GateProducts`) and
// the incoherent energy. The distance estimator applies one
// fixed-direction weight vector to every beep (`apply_weights`). The
// imager never solves a weight: it reads each pixel's steered gate energy
// w^H R_g w in closed form (below), through the kernels of simd/kernels.hpp:
// the gate sums behind each R_g and the sweep row.
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

  /// Packed form (see `packed_form_size`) of the Hermitian part of R^-1:
  /// a pixel's MVDR denominator a^H R^-1 a is its value.
  [[nodiscard]] const double* packed_inverse() const {
    return packed_inverse_.data();
  }

 private:
  ArrayGeometry geom_;      ///< the (possibly reduced) subarray
  CMatrix noise_cov_inv_;   ///< inverse of the masked, loaded covariance
  /// Packed form of the Hermitian part of `noise_cov_inv_`.
  std::vector<double> packed_inverse_;
  units::Hertz center_freq_;
  units::MetersPerSecond speed_of_sound_;
};

/// Every sample's products x_i(t) conj(x_j(t)), j >= i, of a window's
/// active channels, formed once so that each gate over the window sums
/// them instead of forming them again: a product rounds the same whichever
/// gate sums it. Row t holds (re, im) = (xr_i xr_j + xi_i xi_j,
/// xi_i xr_j - xr_i xi_j) for each pair, i ascending and j from i,
/// padded with zeros to a multiple of four doubles. About 0.13 MB for a
/// paper-scale window of six channels.
class GateProducts {
 public:
  /// `channels` are the active channels' windows, all of one length.
  /// Throws std::invalid_argument on no channels or ragged ones.
  explicit GateProducts(
      const std::vector<echoimage::dsp::ComplexSignal>& channels);

  /// Gate covariance R_g = sum_t x(t) x(t)^H over the samples of
  /// [first, first+count) inside the window (an empty range gives
  /// zeros): R_g[i][j] sums row entries in ascending t for j >= i
  /// (simd gate_sums_f64), and R_g[j][i] = conj(R_g[i][j]). Every pixel
  /// sharing the gate reads its steered energy from this one matrix,
  /// through its packed form (see `packed_form_size`).
  [[nodiscard]] CMatrix covariance(std::size_t first,
                                   std::size_t count) const;

 private:
  std::size_t mics_ = 0;
  std::size_t length_ = 0;
  std::size_t width_ = 0;       ///< doubles per row
  std::vector<double> terms_;   ///< length_ rows of width_
};

/// Incoherent (phase-free) energy: mean over the channels of each one's
/// energy in [first, first+count), channels outer and samples inner, both
/// ascending. Direction-free — pure range information, immune to
/// inter-channel phase (speckle) flips. Same input contract as
/// `GateProducts`.
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

/// The roots of the steering ladder toward the unit vector `unit` on the
/// microphones of `geom`, at the evenly spaced wavenumbers k_b = k0 + b dk
/// (rad/m): band 0's steering vector base_m = exp(j k0 unit . p_m) and the
/// step step_m = exp(j dk unit . p_m), each (re, im) per microphone into
/// 2M doubles (the step only when bands > 1). Band b's vector a_m(b) =
/// exp(j k_b unit . p_m), the vector `WeightSolver::compute_weights` steers
/// toward a direction whose `line_of_sight` is `unit`, is band b - 1's
/// times the step, one complex product per microphone: the sweep kernel
/// (simd closed_form_row_f64) climbs the ladder.
void ladder_roots(const ArrayGeometry& geom, const Vec3& unit, double k0,
                  double dk, std::size_t bands, double* base, double* step);

/// Normalized spatial covariance of a (band-passed) noise-only capture:
/// analytic signal per channel, sample covariance over the full length.
[[nodiscard]] CMatrix noise_covariance_of(const MultiChannelSignal& noise);

/// Power beampattern of a weight vector: |w^H a(dir)|^2 for each direction.
[[nodiscard]] std::vector<double> beampattern(
    const ArrayGeometry& geom, const std::vector<Complex>& w,
    units::Hertz freq, const std::vector<Direction>& dirs,
    units::MetersPerSecond speed_of_sound = kSpeedOfSoundMps);

}  // namespace echoimage::array
