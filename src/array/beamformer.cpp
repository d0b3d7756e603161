#include "array/beamformer.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>

#include "dsp/hilbert.hpp"
#include "simd/kernels.hpp"

namespace echoimage::array {

using echoimage::dsp::Complex;
using echoimage::dsp::ComplexSignal;
using echoimage::linalg::hdot;

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

/// Common length of a gate statistic's channels.
std::size_t common_length(const std::vector<ComplexSignal>& channels,
                          const char* what) {
  if (channels.empty())
    throw std::invalid_argument(std::string(what) + ": no channels");
  const std::size_t length = channels.front().size();
  for (const ComplexSignal& c : channels)
    if (c.size() != length)
      throw std::invalid_argument(std::string(what) + ": ragged channels");
  return length;
}

}  // namespace

WeightSolver::WeightSolver(const ArrayGeometry& geom,
                           const CMatrix& noise_covariance,
                           units::Hertz center_freq,
                           units::MetersPerSecond speed_of_sound,
                           const ChannelMask& active_mask)
    : geom_(geom.subarray(active_mask)),
      center_freq_(center_freq),
      speed_of_sound_(speed_of_sound) {
  if (noise_covariance.rows() != geom.num_mics() ||
      noise_covariance.cols() != geom.num_mics())
    throw std::invalid_argument("WeightSolver: covariance/mic mismatch");
  CMatrix loaded = masked_covariance(noise_covariance, active_mask);
  loaded.add_diagonal(1e-3);
  noise_cov_inv_ = echoimage::linalg::inverse(loaded);
  // The inverse of a Hermitian matrix is Hermitian only up to rounding;
  // a^H R^-1 a is real exactly for its Hermitian part.
  const std::size_t m = geom_.num_mics();
  packed_inverse_.resize(packed_form_size(m));
  double* f = packed_inverse_.data();
  for (std::size_t i = 0; i < m; ++i) f[0] += noise_cov_inv_(i, i).real();
  ++f;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) {
      const Complex upper = noise_cov_inv_(i, j);
      const Complex lower = noise_cov_inv_(j, i);
      *f++ = 0.5 * (upper.real() + lower.real());
      *f++ = 0.5 * (upper.imag() - lower.imag());
    }
  }
}

void WeightSolver::compute_weights(const Direction& dir, bool use_mvdr,
                                   std::vector<Complex>& scratch,
                                   std::vector<Complex>& out) const {
  steering_vector_into(geom_, dir,
                       2.0 * std::numbers::pi * center_freq_.value(),
                       speed_of_sound_, scratch);
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

void WeightSolver::pack_gate_form(const CMatrix& gate_covariance,
                                  bool use_mvdr, double* out) const {
  const std::size_t m = geom_.num_mics();
  if (gate_covariance.rows() != m || gate_covariance.cols() != m)
    throw std::invalid_argument("pack_gate_form: covariance/mic mismatch");
  const Complex* r = gate_covariance.data().data();
  if (!use_mvdr) {
    const double scale = 1.0 / static_cast<double>(m * m);
    double trace = 0.0;
    for (std::size_t i = 0; i < m; ++i) trace += r[i * m + i].real();
    *out++ = trace * scale;
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = i + 1; j < m; ++j) {
        *out++ = r[i * m + j].real() * scale;
        *out++ = r[i * m + j].imag() * scale;
      }
    }
    return;
  }
  // Column by column: t = R_g q_j for the j-th column q_j of R^-1, then
  // B_ij = sum_k conj(R^-1_ki) t_k for i <= j, k ascending. Products are
  // spelled out in real arithmetic, as in `GateProducts`.
  const Complex* q = noise_cov_inv_.data().data();
  std::vector<double> t(2 * m);
  double trace = 0.0;
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t k = 0; k < m; ++k) {
      double re = 0.0, im = 0.0;
      for (std::size_t l = 0; l < m; ++l) {
        const Complex a = r[k * m + l], b = q[l * m + j];
        re += a.real() * b.real() - a.imag() * b.imag();
        im += a.real() * b.imag() + a.imag() * b.real();
      }
      t[2 * k] = re;
      t[2 * k + 1] = im;
    }
    for (std::size_t i = 0; i <= j; ++i) {
      double re = 0.0, im = 0.0;
      for (std::size_t k = 0; k < m; ++k) {
        const Complex a = q[k * m + i];
        re += a.real() * t[2 * k] + a.imag() * t[2 * k + 1];
        im += a.real() * t[2 * k + 1] - a.imag() * t[2 * k];
      }
      if (i == j) {
        trace += re;
        continue;
      }
      // Pair (i, j) sits after the m - 1 + ... + m - i pairs of rows < i.
      const std::size_t pair = i * (2 * m - i - 1) / 2 + (j - i - 1);
      out[1 + 2 * pair] = re;
      out[2 + 2 * pair] = im;
    }
  }
  out[0] = trace;
}

void ladder_roots(const ArrayGeometry& geom, const Vec3& unit, double k0,
                  double dk, std::size_t bands, double* base, double* step) {
  for (std::size_t i = 0; i < geom.num_mics(); ++i) {
    const double along = unit.dot(geom.mic(i));
    const double phase = k0 * along;
    base[2 * i] = std::cos(phase);
    base[2 * i + 1] = std::sin(phase);
    if (bands < 2) continue;
    const double ladder_step = dk * along;
    step[2 * i] = std::cos(ladder_step);
    step[2 * i + 1] = std::sin(ladder_step);
  }
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

GateProducts::GateProducts(const std::vector<ComplexSignal>& channels)
    : mics_(channels.size()),
      length_(common_length(channels, "GateProducts")) {
  const std::size_t m = mics_;
  width_ = (m * (m + 1) + 3) / 4 * 4;
  terms_.assign(length_ * width_, 0.0);
  // x_i conj(x_j) spelled out in real arithmetic: the same roundings as
  // the std::complex product, without its NaN-recovery branch.
  for (std::size_t t = 0; t < length_; ++t) {
    double* row = terms_.data() + t * width_;
    for (std::size_t i = 0; i < m; ++i) {
      const Complex xi = channels[i][t];
      for (std::size_t j = i; j < m; ++j) {
        const Complex xj = channels[j][t];
        *row++ = xi.real() * xj.real() + xi.imag() * xj.imag();
        *row++ = xi.imag() * xj.real() - xi.real() * xj.imag();
      }
    }
  }
}

CMatrix GateProducts::covariance(std::size_t first, std::size_t count) const {
  const std::size_t m = mics_;
  const std::size_t last = std::min(length_, first + count);
  CMatrix r(m, m);
  if (first >= last) return r;
  std::vector<double> sums(width_);
  echoimage::simd::kernels().gate_sums_f64(terms_.data(), width_, first,
                                           last, sums.data());
  const double* s = sums.data();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i; j < m; ++j, s += 2) {
      r(i, j) = Complex(s[0], s[1]);
      if (j != i) r(j, i) = Complex(s[0], -s[1]);
    }
  }
  return r;
}

double incoherent_energy(const std::vector<ComplexSignal>& channels,
                         std::size_t first, std::size_t count) {
  const std::size_t last = std::min(
      common_length(channels, "incoherent_energy"), first + count);
  if (first >= last) return 0.0;
  double e = 0.0;
  for (const ComplexSignal& x : channels)
    for (std::size_t t = first; t < last; ++t) e += std::norm(x[t]);
  return e / static_cast<double>(channels.size());
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
