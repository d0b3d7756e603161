// Fast Fourier transform for the EchoImage DSP stack.
//
// One in-place radix-2 Cooley–Tukey transform for power-of-two sizes; callers
// with other lengths zero-pad to next_pow2(). The forward transform is
// unnormalized and the inverse (1/N)-normalized, matching the usual
// engineering convention.
#pragma once

#include <cstddef>

#include "dsp/signal.hpp"

namespace echoimage::dsp {

/// Smallest power of two >= n (and >= 1).
[[nodiscard]] std::size_t next_pow2(std::size_t n);

/// True when n is a power of two (n >= 1).
[[nodiscard]] bool is_pow2(std::size_t n);

/// In-place radix-2 FFT. `x.size()` must be a power of two; throws
/// std::invalid_argument otherwise. `inverse` selects the (1/N)-normalized
/// inverse transform.
void fft_pow2_in_place(ComplexSignal& x, bool inverse);

/// Forward FFT of `x` zero-padded to `n` points (a power of two no
/// shorter than `x`; throws std::invalid_argument otherwise): the bits of
/// copying `x` into n zeros and calling fft_pow2_in_place, with each
/// sample written straight to its bit-reversed position instead of
/// permuted afterwards.
[[nodiscard]] ComplexSignal fft_pow2_padded(std::span<const Sample> x,
                                            std::size_t n);
[[nodiscard]] ComplexSignal fft_pow2_padded(std::span<const Complex> x,
                                            std::size_t n);

/// Frequency (Hz) of FFT bin `k` for an N-point transform at `sample_rate`.
/// Bins above N/2 map to their negative frequencies.
[[nodiscard]] double bin_frequency(std::size_t k, std::size_t n,
                                   double sample_rate);

}  // namespace echoimage::dsp
