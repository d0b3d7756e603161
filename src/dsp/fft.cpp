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

double bin_frequency(std::size_t k, std::size_t n, double sample_rate) {
  if (n == 0) throw std::invalid_argument("bin_frequency: n == 0");
  const double kk = (k <= n / 2) ? static_cast<double>(k)
                                 : static_cast<double>(k) - static_cast<double>(n);
  return kk * sample_rate / static_cast<double>(n);
}

}  // namespace echoimage::dsp
