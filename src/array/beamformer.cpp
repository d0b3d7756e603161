#include "array/beamformer.hpp"

#include <algorithm>
#include <numbers>
#include <stdexcept>

#include "dsp/hilbert.hpp"
#include "simd/kernels.hpp"

namespace echoimage::array {

using echoimage::dsp::Complex;
using echoimage::dsp::ComplexSignal;
using echoimage::linalg::hdot;
using echoimage::linalg::multiply;

std::vector<Complex> das_weights(const std::vector<Complex>& steering) {
  std::vector<Complex> w = steering;
  const double inv_m = 1.0 / static_cast<double>(steering.size());
  for (Complex& v : w) v *= inv_m;
  return w;
}

ComplexSignal apply_weights(const std::vector<ComplexSignal>& channels,
                            const std::vector<Complex>& w) {
  if (channels.size() != w.size())
    throw std::invalid_argument("apply_weights: channel/weight mismatch");
  std::size_t n = 0;
  for (const ComplexSignal& c : channels) n = std::max(n, c.size());
  ComplexSignal y(n, Complex(0.0, 0.0));
  for (std::size_t m = 0; m < channels.size(); ++m) {
    const Complex wm = std::conj(w[m]);
    const ComplexSignal& x = channels[m];
    for (std::size_t t = 0; t < x.size(); ++t) y[t] += wm * x[t];
  }
  return y;
}

namespace {

/// Validate an active-channel mask against the full channel count. Returns
/// true when the mask actually drops something.
bool check_mask(const ChannelMask& mask, std::size_t num_channels) {
  if (mask.empty()) return false;
  if (mask.size() != num_channels)
    throw std::invalid_argument("NarrowbandBeamformer: mask/channel mismatch");
  const std::size_t active = count_active(mask);
  if (active == 0)
    throw std::invalid_argument(
        "NarrowbandBeamformer: mask leaves no channel");
  return active < num_channels;
}

}  // namespace

NarrowbandBeamformer::NarrowbandBeamformer(const MultiChannelSignal& bandpassed,
                                           double sample_rate,
                                           units::Hertz center_freq,
                                           ArrayGeometry geom,
                                           CMatrix noise_covariance,
                                           units::MetersPerSecond speed_of_sound,
                                           const ChannelMask& active_mask)
    : sample_rate_(sample_rate),
      center_freq_hz_(center_freq.value()),
      speed_of_sound_(speed_of_sound.value()) {
  if (bandpassed.num_channels() != geom.num_mics())
    throw std::invalid_argument("NarrowbandBeamformer: channel/mic mismatch");
  if (!bandpassed.is_rectangular())
    throw std::invalid_argument(
        "NarrowbandBeamformer: ragged multichannel capture");
  if (noise_covariance.rows() != geom.num_mics() ||
      noise_covariance.cols() != geom.num_mics())
    throw std::invalid_argument(
        "NarrowbandBeamformer: covariance/mic mismatch");
  const bool reduced = check_mask(active_mask, bandpassed.num_channels());
  geom_ = reduced ? geom.subarray(active_mask) : std::move(geom);
  noise_cov_ = reduced ? masked_covariance(noise_covariance, active_mask)
                       : std::move(noise_covariance);
  length_ = bandpassed.length();
  analytic_.reserve(geom_.num_mics());
  for (std::size_t c = 0; c < bandpassed.num_channels(); ++c) {
    if (reduced && !active_mask[c]) continue;
    analytic_.push_back(
        echoimage::dsp::analytic_signal(bandpassed.channels[c]));
  }
  noise_cov_.add_diagonal(1e-3);
  noise_cov_inv_ = echoimage::linalg::inverse(noise_cov_);
  finalize_channels();
}

NarrowbandBeamformer::NarrowbandBeamformer(
    std::vector<ComplexSignal> channels, double sample_rate,
    units::Hertz center_freq, ArrayGeometry geom, CMatrix noise_covariance,
    units::MetersPerSecond speed_of_sound, const ChannelMask& active_mask)
    : sample_rate_(sample_rate),
      center_freq_hz_(center_freq.value()),
      speed_of_sound_(speed_of_sound.value()) {
  if (channels.size() != geom.num_mics())
    throw std::invalid_argument("NarrowbandBeamformer: channel/mic mismatch");
  if (noise_covariance.rows() != geom.num_mics() ||
      noise_covariance.cols() != geom.num_mics())
    throw std::invalid_argument(
        "NarrowbandBeamformer: covariance/mic mismatch");
  const bool reduced = check_mask(active_mask, channels.size());
  geom_ = reduced ? geom.subarray(active_mask) : std::move(geom);
  noise_cov_ = reduced ? masked_covariance(noise_covariance, active_mask)
                       : std::move(noise_covariance);
  analytic_ = reduced ? select_channels(channels, active_mask)
                      : std::move(channels);
  length_ = analytic_.front().size();
  for (const ComplexSignal& c : analytic_)
    if (c.size() != length_)
      throw std::invalid_argument(
          "NarrowbandBeamformer: ragged complex channels");
  noise_cov_.add_diagonal(1e-3);
  noise_cov_inv_ = echoimage::linalg::inverse(noise_cov_);
  finalize_channels();
}

NarrowbandBeamformer::NarrowbandBeamformer(const NarrowbandBeamformer& other)
    : geom_(other.geom_),
      sample_rate_(other.sample_rate_),
      center_freq_hz_(other.center_freq_hz_),
      speed_of_sound_(other.speed_of_sound_),
      length_(other.length_),
      analytic_(other.analytic_),
      noise_cov_(other.noise_cov_),
      noise_cov_inv_(other.noise_cov_inv_) {
  finalize_channels();
}

NarrowbandBeamformer& NarrowbandBeamformer::operator=(
    const NarrowbandBeamformer& other) {
  if (this == &other) return *this;
  geom_ = other.geom_;
  sample_rate_ = other.sample_rate_;
  center_freq_hz_ = other.center_freq_hz_;
  speed_of_sound_ = other.speed_of_sound_;
  length_ = other.length_;
  analytic_ = other.analytic_;
  noise_cov_ = other.noise_cov_;
  noise_cov_inv_ = other.noise_cov_inv_;
  finalize_channels();
  return *this;
}

void NarrowbandBeamformer::finalize_channels() {
  ch_ptrs_.clear();
  ch_ptrs_.reserve(analytic_.size());
  for (const ComplexSignal& c : analytic_) ch_ptrs_.push_back(c.data());
}

CMatrix noise_covariance_of(const MultiChannelSignal& noise) {
  if (noise.num_channels() == 0 || noise.length() == 0)
    throw std::invalid_argument("noise_covariance_of: empty capture");
  std::vector<ComplexSignal> analytic;
  analytic.reserve(noise.num_channels());
  for (const Signal& c : noise.channels)
    analytic.push_back(echoimage::dsp::analytic_signal(c));
  return normalized_covariance(analytic, 0, noise.length());
}

CMatrix noise_covariance_of(const MultiChannelSignal& noise,
                            const ChannelMask& mask) {
  if (mask.empty()) return noise_covariance_of(noise);
  if (mask.size() != noise.num_channels())
    throw std::invalid_argument("noise_covariance_of: mask/channel mismatch");
  MultiChannelSignal kept;
  kept.channels.reserve(noise.num_channels());
  for (std::size_t c = 0; c < noise.num_channels(); ++c)
    if (mask[c]) kept.channels.push_back(noise.channels[c]);
  if (kept.channels.empty())
    throw std::invalid_argument("noise_covariance_of: mask leaves no channel");
  return noise_covariance_of(kept);
}

std::vector<Complex> NarrowbandBeamformer::weights_mvdr(
    const Direction& dir) const {
  const std::vector<Complex> a =
      steering_vector_hz(geom_, dir, units::Hertz{center_freq_hz_},
                         units::MetersPerSecond{speed_of_sound_});
  std::vector<Complex> ra = multiply(noise_cov_inv_, a);
  const Complex denom = hdot(a, ra);
  for (Complex& w : ra) w /= denom;
  return ra;
}

std::vector<Complex> NarrowbandBeamformer::weights_das(
    const Direction& dir) const {
  return das_weights(
      steering_vector_hz(geom_, dir, units::Hertz{center_freq_hz_},
                         units::MetersPerSecond{speed_of_sound_}));
}

void NarrowbandBeamformer::compute_weights(const Direction& dir,
                                           bool use_mvdr,
                                           std::vector<Complex>& scratch,
                                           std::vector<Complex>& out) const {
  steering_vector_into(geom_, dir,
                       2.0 * std::numbers::pi * center_freq_hz_,
                       units::MetersPerSecond{speed_of_sound_}, scratch);
  if (use_mvdr) {
    echoimage::linalg::multiply_into(noise_cov_inv_, scratch, out);
    const Complex denom = hdot(scratch, out);
    for (Complex& w : out) w /= denom;
  } else {
    out = scratch;
    const double inv_m = 1.0 / static_cast<double>(out.size());
    for (Complex& w : out) w *= inv_m;
  }
}

ComplexSignal NarrowbandBeamformer::steer(const Direction& dir) const {
  return apply_weights(analytic_, weights_mvdr(dir));
}

ComplexSignal NarrowbandBeamformer::steer_das(const Direction& dir) const {
  return apply_weights(analytic_, weights_das(dir));
}

CMatrix NarrowbandBeamformer::gate_covariance(std::size_t first,
                                              std::size_t count) const {
  const std::size_t m = analytic_.size();
  CMatrix r(m, m);
  const std::size_t last = std::min(length_, first + count);
  if (first >= last) return r;
  // x_i conj(x_j) spelled out in real arithmetic: the same roundings as
  // the std::complex product, without its NaN-recovery branch.
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i; j < m; ++j) {
      const Complex* xi = ch_ptrs_[i];
      const Complex* xj = ch_ptrs_[j];
      double re = 0.0, im = 0.0;
      for (std::size_t t = first; t < last; ++t) {
        re += xi[t].real() * xj[t].real() + xi[t].imag() * xj[t].imag();
        im += xi[t].imag() * xj[t].real() - xi[t].real() * xj[t].imag();
      }
      r(i, j) = Complex(re, im);
      if (j != i) r(j, i) = Complex(re, -im);
    }
  }
  return r;
}

double gated_energy(const CMatrix& gate_covariance,
                    const std::vector<Complex>& w) {
  const std::size_t m = w.size();
  if (gate_covariance.rows() != m || gate_covariance.cols() != m)
    throw std::invalid_argument("gated_energy: weight/covariance mismatch");
  // Real arithmetic with the roundings of the std::complex products, as
  // in `gate_covariance`.
  const Complex* row = gate_covariance.data().data();
  double q = 0.0;
  for (std::size_t i = 0; i < m; ++i, row += m) {
    double are = 0.0, aim = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      are += row[j].real() * w[j].real() - row[j].imag() * w[j].imag();
      aim += row[j].real() * w[j].imag() + row[j].imag() * w[j].real();
    }
    q += w[i].real() * are + w[i].imag() * aim;
  }
  return q;
}

double NarrowbandBeamformer::incoherent_energy(std::size_t first,
                                               std::size_t count) const {
  const std::size_t last = std::min(length_, first + count);
  const std::size_t m = analytic_.size();
  if (first >= last) return 0.0;
  const std::size_t n = last - first;
  return simd::kernels().incoherent_energy_f64(ch_ptrs_.data(), m, first, n) /
         static_cast<double>(m);
}

std::vector<double> beampattern(const ArrayGeometry& geom,
                                const std::vector<Complex>& w,
                                units::Hertz freq,
                                const std::vector<Direction>& dirs,
                                units::MetersPerSecond speed_of_sound) {
  std::vector<double> out;
  out.reserve(dirs.size());
  for (const Direction& d : dirs) {
    const std::vector<Complex> a =
        steering_vector_hz(geom, d, freq, speed_of_sound);
    out.push_back(std::norm(hdot(w, a)));
  }
  return out;
}

}  // namespace echoimage::array
