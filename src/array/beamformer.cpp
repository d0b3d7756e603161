#include "array/beamformer.hpp"

#include <algorithm>
#include <numbers>
#include <stdexcept>
#include <string>

#include "dsp/hilbert.hpp"

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

/// Common length of a gate statistic's channels, clipped `last` of
/// [first, first+count) within it.
std::size_t clipped_last(const std::vector<ComplexSignal>& channels,
                         std::size_t first, std::size_t count,
                         const char* what) {
  if (channels.empty())
    throw std::invalid_argument(std::string(what) + ": no channels");
  const std::size_t length = channels.front().size();
  for (const ComplexSignal& c : channels)
    if (c.size() != length)
      throw std::invalid_argument(std::string(what) + ": ragged channels");
  return std::min(length, first + count);
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

CMatrix noise_covariance_of(const MultiChannelSignal& noise) {
  if (noise.num_channels() == 0 || noise.length() == 0)
    throw std::invalid_argument("noise_covariance_of: empty capture");
  std::vector<ComplexSignal> analytic;
  analytic.reserve(noise.num_channels());
  for (const Signal& c : noise.channels)
    analytic.push_back(echoimage::dsp::analytic_signal(c));
  return normalized_covariance(analytic, 0, noise.length());
}

CMatrix gate_covariance(const std::vector<ComplexSignal>& channels,
                        std::size_t first, std::size_t count) {
  const std::size_t last =
      clipped_last(channels, first, count, "gate_covariance");
  const std::size_t m = channels.size();
  CMatrix r(m, m);
  if (first >= last) return r;
  // x_i conj(x_j) spelled out in real arithmetic: the same roundings as
  // the std::complex product, without its NaN-recovery branch.
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i; j < m; ++j) {
      const Complex* xi = channels[i].data();
      const Complex* xj = channels[j].data();
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

double incoherent_energy(const std::vector<ComplexSignal>& channels,
                         std::size_t first, std::size_t count) {
  const std::size_t last =
      clipped_last(channels, first, count, "incoherent_energy");
  if (first >= last) return 0.0;
  double e = 0.0;
  for (const ComplexSignal& x : channels)
    for (std::size_t t = first; t < last; ++t) e += std::norm(x[t]);
  return e / static_cast<double>(channels.size());
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
