#include "array/covariance.hpp"

#include <stdexcept>

namespace echoimage::array {

CMatrix spatial_covariance(const std::vector<ComplexSignal>& channels,
                           std::size_t first, std::size_t count) {
  if (channels.empty())
    throw std::invalid_argument("spatial_covariance: no channels");
  if (count == 0)
    throw std::invalid_argument("spatial_covariance: empty snapshot range");
  const std::size_t m = channels.size();
  const auto sample = [&](std::size_t c, std::size_t t) {
    return t < channels[c].size() ? channels[c][t] : Complex(0.0, 0.0);
  };
  // R[i][j] = sum_t x_i(t) conj(x_j(t)) for j >= i in ascending t, the
  // product spelled out in real arithmetic with the roundings of the
  // std::complex product. The mirror R[j][i] takes 0.0 - im, not -im:
  // the conjugate product sums to +0 where the upper entry does.
  CMatrix r(m, m);
  const double inv_n = 1.0 / static_cast<double>(count);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i; j < m; ++j) {
      double re = 0.0, im = 0.0;
      for (std::size_t t = first; t < first + count; ++t) {
        const Complex xi = sample(i, t), xj = sample(j, t);
        re += xi.real() * xj.real() + xi.imag() * xj.imag();
        im += xi.imag() * xj.real() - xi.real() * xj.imag();
      }
      r(i, j) = Complex(re * inv_n, im * inv_n);
      if (j != i) r(j, i) = Complex(re * inv_n, (0.0 - im) * inv_n);
    }
  }
  return r;
}

CMatrix normalized_covariance(const std::vector<ComplexSignal>& channels,
                              std::size_t first, std::size_t count) {
  CMatrix r = spatial_covariance(channels, first, count);
  const double d = r.mean_diagonal_real();
  if (d <= 1e-30) return CMatrix::identity(channels.size());
  const double inv = 1.0 / d;
  for (std::size_t i = 0; i < r.rows(); ++i)
    for (std::size_t j = 0; j < r.cols(); ++j) r(i, j) *= inv;
  return r;
}

CMatrix white_noise_covariance(std::size_t num_mics) {
  return CMatrix::identity(num_mics);
}

CMatrix masked_covariance(const CMatrix& full, const ChannelMask& mask) {
  if (mask.empty()) return full;
  if (mask.size() != full.rows() || full.rows() != full.cols())
    throw std::invalid_argument("masked_covariance: mask/matrix mismatch");
  std::vector<std::size_t> keep;
  keep.reserve(mask.size());
  for (std::size_t i = 0; i < mask.size(); ++i)
    if (mask[i]) keep.push_back(i);
  if (keep.empty())
    throw std::invalid_argument("masked_covariance: mask leaves no channel");
  CMatrix out(keep.size(), keep.size());
  for (std::size_t i = 0; i < keep.size(); ++i)
    for (std::size_t j = 0; j < keep.size(); ++j)
      out(i, j) = full(keep[i], keep[j]);
  return out;
}

}  // namespace echoimage::array
