#include "simd/fft_plan.hpp"

#include <cmath>
#include <memory>
#include <numbers>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "simd/kernels.hpp"

namespace echoimage::simd {

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

// Twiddles for one stage via the historical recurrence, appended to `tw`:
// the k-th entry is the product of k successive multiplications by wl
// starting from 1 — the same floating-point trajectory the old per-block
// inner loop walked.
void append_stage_twiddles(std::size_t len, bool inverse,
                           AlignedVector<double>& tw) {
  const double ang =
      (inverse ? kTwoPi : -kTwoPi) / static_cast<double>(len);
  const std::complex<double> wl(std::cos(ang), std::sin(ang));
  std::complex<double> w(1.0, 0.0);
  for (std::size_t k = 0; k < len / 2; ++k) {
    tw.push_back(w.real());
    tw.push_back(w.imag());
    w *= wl;
  }
}

}  // namespace

FftPlan::FftPlan(std::size_t n) : n_(n), reversed_(n) {
  if (n == 0 || (n & (n - 1)) != 0)
    throw std::invalid_argument("FftPlan: size must be 2^k");
  // The historical fft_pow2_in_place prologue, recorded as swaps.
  for (std::size_t i = 0; i < n; ++i)
    reversed_[i] = static_cast<std::uint32_t>(i);
  std::size_t j = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) {
      swaps_.emplace_back(static_cast<std::uint32_t>(i),
                          static_cast<std::uint32_t>(j));
      std::swap(reversed_[i], reversed_[j]);
    }
  }
  // Complex 0 of each table is unused padding, so stage len starts at
  // complex len/2.
  fwd_.reserve(2 * n);
  inv_.reserve(2 * n);
  fwd_.assign(2, 0.0);
  inv_.assign(2, 0.0);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    append_stage_twiddles(len, false, fwd_);
    append_stage_twiddles(len, true, inv_);
  }
}

const FftPlan& FftPlan::for_size(std::size_t n) {
  thread_local std::unordered_map<std::size_t, std::unique_ptr<FftPlan>>
      cache;
  auto it = cache.find(n);
  if (it == cache.end())
    it = cache.emplace(n, std::make_unique<FftPlan>(n)).first;
  return *it->second;
}

void FftPlan::execute(std::complex<double>* x, bool inverse) const {
  for (const auto& [i, j] : swaps_) std::swap(x[i], x[j]);
  execute_reversed(x, inverse);
}

void FftPlan::execute_reversed(std::complex<double>* x, bool inverse) const {
  if (n_ == 1) return;
  kernels().fft_f64(reinterpret_cast<double*>(x),
                    (inverse ? inv_ : fwd_).data(), n_, inverse);
}

}  // namespace echoimage::simd
