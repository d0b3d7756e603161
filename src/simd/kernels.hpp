// The vectorized kernel inventory behind the EchoImage DSP hot path.
//
// One KernelTable per ISA lane (see isa.hpp); kernels() returns the table
// for the active lane. Each kernel's semantics are defined by the scalar
// reference implementation (kernels_scalar.cpp) — which reproduces the
// historical per-site loops bit for bit — and every SIMD lane must match
// the reference bitwise. tests/simd/kernel_diff_test.cpp enforces this
// differentially on every supported lane.
//
// Layering: this header depends only on the standard library, so every
// layer above (dsp, array, core) can call kernels without cycles. Raw
// intrinsics live exclusively in the per-ISA translation units here —
// echolint rule R9 bans them everywhere else.
#pragma once

#include <complex>
#include <cstddef>

#include "simd/isa.hpp"

namespace echoimage::simd {

/// One normalized biquad section (a0 == 1), direct form II transposed.
/// Mirrors dsp::BiquadSection without depending on the dsp layer.
struct SosCoeffs {
  double b0 = 1.0, b1 = 0.0, b2 = 0.0;
  double a1 = 0.0, a2 = 0.0;
};

/// Function-pointer table for one ISA lane. All pointer arguments may be
/// arbitrarily (mis)aligned; counts may be zero.
struct KernelTable {
  Isa isa = Isa::kScalar;

  /// One radix-2 butterfly stage over an interleaved complex-double array
  /// of n elements (2n doubles): for each block of `len`, and k in
  /// [0, len/2): v = x[i+k+len/2] * tw[k]; x[i+k] = u + v;
  /// x[i+k+len/2] = u - v. `tw` holds len/2 interleaved twiddles.
  void (*fft_stage_f64)(double* x, const double* tw, std::size_t n,
                        std::size_t len);

  /// a[i] *= conj(b[i]), the correlation / matched-filter spectrum product.
  void (*complex_conj_mul_f64)(std::complex<double>* a,
                               const std::complex<double>* b, std::size_t n);

  /// a[i] *= s componentwise (inverse-FFT normalization, the Hilbert
  /// one-sided doubling).
  void (*complex_scale_f64)(std::complex<double>* a, std::size_t n, double s);

  /// x[i] *= s (real gain pass of an SOS cascade).
  void (*scale_f64)(double* x, std::size_t n, double s);

  /// One biquad section over channel-interleaved frames: `x` holds
  /// `num_frames` frames of `width` doubles (one slot per lockstepped
  /// channel); `z1`/`z2` are the per-channel DF2T states (width each),
  /// updated in place. Per frame, per channel: out = b0*in + z1;
  /// z1 = b1*in - a1*out + z2; z2 = b2*in - a2*out.
  void (*sos_section_f64)(double* x, std::size_t num_frames, std::size_t width,
                          const SosCoeffs& c, double* z1, double* z2);
};

/// Table for the active lane (see isa.hpp for the resolution order).
[[nodiscard]] const KernelTable& kernels();

/// Table for a specific lane; throws std::invalid_argument when the lane
/// is not supported on this machine/build.
[[nodiscard]] const KernelTable& kernels_for(Isa isa);

namespace detail {
// Per-ISA registration points, defined in their translation units.
// A lane that was not compiled in returns nullptr.
[[nodiscard]] const KernelTable* scalar_table();
[[nodiscard]] const KernelTable* sse2_table();
[[nodiscard]] const KernelTable* avx2_table();
[[nodiscard]] const KernelTable* neon_table();
}  // namespace detail

}  // namespace echoimage::simd
