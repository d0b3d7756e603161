// Precomputed radix-2 FFT plans for the vectorized transform.
//
// A plan holds the twiddle tables of one power-of-two size, built with the
// exact repeated-multiplication recurrence the historical fft_pow2_in_place
// loop used (w = 1; tw[k] = w; w *= wl) — NOT a direct cos/sin per index,
// which would round differently and change every committed golden — and
// the bit-reversal permutation as a table of the historical loop's swaps.
// Execution permutes from the table, then runs the whole-transform kernel
// (simd/kernels.hpp fft_f64) on the active ISA lane, which also takes the
// inverse's 1/N; the result is bit-identical to the historical loop on
// every lane. Callers that copy into a zero-padded buffer can write each
// sample straight to its bit-reversed position (`reversed`) and skip the
// permutation (`execute_reversed`): a permutation moves values exactly.
//
// Plans are cached per thread (thread_local), so concurrent imaging
// workers never contend and never share mutable state.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "simd/aligned.hpp"

namespace echoimage::simd {

class FftPlan {
 public:
  /// Build a plan for size n (must be a power of two, n >= 1).
  explicit FftPlan(std::size_t n);

  /// Cached plan for size n, owned by the calling thread.
  static const FftPlan& for_size(std::size_t n);

  /// In-place transform of n complex values, on the active ISA lane.
  void execute(std::complex<double>* x, bool inverse) const;

  /// The same transform of n values already in bit-reversed order: input
  /// i sits at x[reversed(i)].
  void execute_reversed(std::complex<double>* x, bool inverse) const;

  /// Bit-reversed position of index i < size().
  [[nodiscard]] std::size_t reversed(std::size_t i) const {
    return reversed_[i];
  }

  [[nodiscard]] std::size_t size() const { return n_; }

 private:
  std::size_t n_;
  std::vector<std::uint32_t> reversed_;
  /// The historical permutation loop's swaps (i < j), in its order.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> swaps_;
  // Stage len's len/2 interleaved complex twiddles are complexes
  // [len/2, len) of its direction's table; forward and inverse differ by
  // the sign of the angle.
  AlignedVector<double> fwd_;
  AlignedVector<double> inv_;
};

}  // namespace echoimage::simd
