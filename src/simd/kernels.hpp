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
#include <cstdint>

#include "simd/isa.hpp"

namespace echoimage::simd {

/// One normalized biquad section (a0 == 1), direct form II transposed.
/// Mirrors dsp::BiquadSection without depending on the dsp layer.
struct SosCoeffs {
  double b0 = 1.0, b1 = 0.0, b2 = 0.0;
  double a1 = 0.0, a2 = 0.0;
};

/// One row of the imager's closed-form grid sweep (array/beamformer.hpp
/// and core/imaging.cpp): per pixel, the steering vectors on the subband
/// ladder, per band their pair products and the denominator, then per
/// beep the pixel's energy from its gate's packed form. `mics` is M'
/// (>= 1), P = M'(M'-1)/2 its pairs, and a packed form holds 1 + 2P
/// doubles: the real trace, then (re, im) per pair i < j, row by row.
struct SweepRow {
  std::size_t pixels = 0;
  std::size_t mics = 0;
  std::size_t bands = 0;
  std::size_t beeps = 0;
  /// Per pixel and microphone, (re, im) interleaved, pixel-major: band 0's
  /// steering entry exp(j k0 u.p_m) and the ladder step exp(j dk u.p_m).
  /// Read only when mix < 1; `step` only when bands > 1.
  const double* base = nullptr;
  const double* step = nullptr;
  const std::uint32_t* gate = nullptr;  ///< per pixel: its gate's index
  /// Per band: the packed Hermitian part of R^-1, whose form gives the
  /// MVDR denominator a^H R^-1 a. Null: delay-and-sum, denominator 1.
  const double* const* inverse = nullptr;
  /// Per (beep, band) slot, beep-major (slot = beep * bands + band): the
  /// packed forms of B_g, 1 + 2P doubles per gate (read when mix < 1),
  /// the incoherent energy per gate (read when mix > 0), and the row of
  /// the slot's image, which each pixel's energy is added to.
  const double* const* forms = nullptr;
  const double* const* incoherent = nullptr;
  double* const* out = nullptr;
  double mix = 0.0;  ///< incoherent share, in [0, 1]
};

/// One same-padded 3x3 convolution layer (ml::Conv2D): an HWC input of
/// height x width x in, weights [3][3][in][out], one bias per output
/// channel.
struct Conv3x3 {
  const double* input = nullptr;
  std::size_t height = 0;
  std::size_t width = 0;
  std::size_t in = 0;
  std::size_t out = 0;
  const double* weights = nullptr;
  const double* bias = nullptr;
};

/// Function-pointer table for one ISA lane. All pointer arguments may be
/// arbitrarily (mis)aligned; counts may be zero.
struct KernelTable {
  Isa isa = Isa::kScalar;

  /// Every radix-2 butterfly stage of an n-point transform (n a power of
  /// two, n >= 2) over an interleaved complex-double array already in
  /// bit-reversed order: for len = 2, 4, ..., n in turn, for each block of
  /// `len` and k in [0, len/2): v = x[i+k+len/2] * w_len[k];
  /// x[i+k] = u + v; x[i+k+len/2] = u - v, where stage len's len/2
  /// twiddles w_len are complexes [len/2, len) of `tw`. With `normalize`,
  /// every element is then multiplied by 1.0 / n (the inverse's 1/N).
  void (*fft_f64)(double* x, const double* tw, std::size_t n, bool normalize);

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
  /// z1 = b1*in - a1*out + z2; z2 = b2*in - a2*out. The AVX2 lane holds
  /// the states of up to 8 channels in registers across frames.
  void (*sos_section_f64)(double* x, std::size_t num_frames, std::size_t width,
                          const SosCoeffs& c, double* z1, double* z2);

  /// Column sums of rows [first, last) of a row-major table `width`
  /// doubles wide: out[c] = sum_t table[t * width + c], each summed from
  /// 0.0 in ascending t; all zeros when first >= last. A gate covariance
  /// from its window's per-sample products (array::GateProducts), one
  /// call per gate.
  void (*gate_sums_f64)(const double* table, std::size_t width,
                        std::size_t first, std::size_t last, double* out);

  /// Every pixel of one sweep row (see SweepRow), one call per row. Per
  /// pixel p with gate g, the steering entries start at `base` and take
  /// one ladder step per band (re' = re*sr - im*si, im' = re*si + im*sr);
  /// per band the pairs are (ci*cj + si*sj, ci*sj - si*cj) for i < j and
  /// a form's value is f[0] + 2q with q += f[1+2k]*re_k - f[2+2k]*im_k in
  /// pair order; den2 = den*den (1 for delay-and-sum); then per beep
  /// e = 0; e += (1-mix)*(value/den2) if mix < 1; e += mix*incoherent[g]
  /// if mix > 0; out[p] += e.
  void (*closed_form_row_f64)(const SweepRow& row);

  /// Output row `oy` of a 3x3 convolution (see Conv3x3) into `y`, width x
  /// out doubles: per pixel and output channel, 0.0 plus v*w over the
  /// in-range taps in (ky, kx, ci) order, skipping v == 0, then the bias.
  void (*conv3x3_row_f64)(const Conv3x3& conv, std::size_t oy, double* y);
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

// The scalar lane's entries that other lanes reuse: the SSE2 lane takes
// these three as they are, and the AVX2 lane sends a row's tail pixels,
// and rows of more microphones than its registers hold, to
// closed_form_pixels_scalar.
void gate_sums_scalar(const double* table, std::size_t width,
                      std::size_t first, std::size_t last, double* out);
void closed_form_row_scalar(const SweepRow& row);
void conv3x3_row_scalar(const Conv3x3& conv, std::size_t oy, double* y);
/// Pixels [begin, end) of a sweep row, as closed_form_row_f64.
void closed_form_pixels_scalar(const SweepRow& row, std::size_t begin,
                               std::size_t end);
}  // namespace detail

}  // namespace echoimage::simd
