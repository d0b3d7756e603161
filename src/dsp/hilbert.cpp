#include "dsp/hilbert.hpp"

#include <algorithm>
#include <cmath>

#include "dsp/fft.hpp"
#include "simd/kernels.hpp"

namespace echoimage::dsp {

ComplexSignal analytic_signal(std::span<const Sample> x) {
  if (x.empty()) return {};
  const std::size_t n = x.size();
  const std::size_t m = next_pow2(n);
  ComplexSignal spec = fft_pow2_padded(x, m);
  // One-sided spectrum: keep DC and Nyquist, double positive frequencies,
  // zero negative frequencies.
  if (m >= 2)
    simd::kernels().complex_scale_f64(spec.data() + 1, m / 2 - 1, 2.0);
  for (std::size_t k = m / 2 + 1; k < m; ++k) spec[k] = Complex(0.0, 0.0);
  fft_pow2_in_place(spec, true);
  spec.resize(n);
  return spec;
}

Signal envelope(std::span<const Sample> x) {
  const ComplexSignal a = analytic_signal(x);
  Signal out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = std::abs(a[i]);
  return out;
}

Signal moving_average(std::span<const Sample> x, std::size_t len) {
  if (x.empty()) return {};
  if (len <= 1) return Signal(x.begin(), x.end());
  if (len % 2 == 0) ++len;  // force odd for zero group delay
  const auto n = static_cast<std::ptrdiff_t>(x.size());
  const auto half = static_cast<std::ptrdiff_t>(len / 2);
  // Reflect index into [0, n).
  const auto reflect = [n](std::ptrdiff_t i) {
    while (i < 0 || i >= n) {
      if (i < 0) i = -i;
      if (i >= n) i = 2 * (n - 1) - i;
    }
    return i;
  };
  Signal out(x.size());
  // Sliding-window sum with reflected edges.
  double acc = 0.0;
  for (std::ptrdiff_t j = -half; j <= half; ++j) acc += x[reflect(j)];
  out[0] = acc / static_cast<double>(len);
  for (std::ptrdiff_t i = 1; i < n; ++i) {
    acc += x[reflect(i + half)] - x[reflect(i - 1 - half)];
    out[static_cast<std::size_t>(i)] = acc / static_cast<double>(len);
  }
  return out;
}

}  // namespace echoimage::dsp
