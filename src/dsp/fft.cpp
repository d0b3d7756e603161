#include "dsp/fft.hpp"

#include <stdexcept>

#include "simd/fft_plan.hpp"

namespace echoimage::dsp {

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

bool is_pow2(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

void fft_pow2_in_place(ComplexSignal& x, bool inverse) {
  const std::size_t n = x.size();
  if (!is_pow2(n))
    throw std::invalid_argument("fft_pow2_in_place: size must be 2^k");
  if (n == 1) return;
  // The plan's staged kernels are bit-identical to the historical inline
  // radix-2 loop on every ISA lane (see simd/fft_plan.hpp).
  simd::FftPlan::for_size(n).execute(x.data(), inverse);
}

namespace {

template <typename T>
ComplexSignal padded_transform(std::span<const T> x, std::size_t n) {
  if (!is_pow2(n) || n < x.size())
    throw std::invalid_argument(
        "fft_pow2_padded: size must be 2^k and hold the input");
  const simd::FftPlan& plan = simd::FftPlan::for_size(n);
  ComplexSignal out(n, Complex(0.0, 0.0));
  for (std::size_t i = 0; i < x.size(); ++i)
    out[plan.reversed(i)] = Complex(x[i]);
  plan.execute_reversed(out.data(), false);
  return out;
}

}  // namespace

ComplexSignal fft_pow2_padded(std::span<const Sample> x, std::size_t n) {
  return padded_transform(x, n);
}

ComplexSignal fft_pow2_padded(std::span<const Complex> x, std::size_t n) {
  return padded_transform(x, n);
}

double bin_frequency(std::size_t k, std::size_t n, double sample_rate) {
  if (n == 0) throw std::invalid_argument("bin_frequency: n == 0");
  const double kk = (k <= n / 2) ? static_cast<double>(k)
                                 : static_cast<double>(k) - static_cast<double>(n);
  return kk * sample_rate / static_cast<double>(n);
}

}  // namespace echoimage::dsp
