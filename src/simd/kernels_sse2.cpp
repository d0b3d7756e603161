// SSE2 lane (x86-64 baseline, 128-bit).
//
// Bit-transparency: every arithmetic step is a vertical (element-wise)
// operation in the exact association order of the scalar reference
// (kernels_scalar.cpp). addsub does not exist in SSE2, so the sub half is
// an XOR sign flip followed by an add — IEEE-exact (x - y == x + (-y)).
// This translation unit is compiled with -ffp-contract=off so the compiler
// cannot fuse the mul/add pairs the reference keeps separate. The gate
// sums, the sweep row and the convolution row reuse the scalar lane's
// entries.
#if defined(__x86_64__) || defined(_M_X64)

#include <emmintrin.h>

#include <complex>
#include <cstddef>

#include "simd/kernels.hpp"

namespace echoimage::simd {
namespace {

using Complex = std::complex<double>;

// Sign masks: flip the real (even) or imaginary (odd) slot of one complex.
inline __m128d neg_even() { return _mm_set_pd(0.0, -0.0); }
inline __m128d neg_odd() { return _mm_set_pd(-0.0, 0.0); }

/// p = x * w for one interleaved complex in each register:
/// re = xr*wr - xi*wi, im = xr*wi + xi*wr (the libstdc++ operator*= order).
inline __m128d cmul(__m128d x, __m128d w) {
  const __m128d xr = _mm_unpacklo_pd(x, x);
  const __m128d xi = _mm_unpackhi_pd(x, x);
  const __m128d wswap = _mm_shuffle_pd(w, w, 1);
  const __m128d t1 = _mm_mul_pd(xr, w);       // [xr*wr, xr*wi]
  const __m128d t2 = _mm_mul_pd(xi, wswap);   // [xi*wi, xi*wr]
  return _mm_add_pd(t1, _mm_xor_pd(t2, neg_even()));
}

/// p = a * conj(b): re = ar*br + ai*bi, im = ai*br - ar*bi.
inline __m128d cmul_conj(__m128d a, __m128d b) {
  const __m128d ar = _mm_unpacklo_pd(a, a);
  const __m128d ai = _mm_unpackhi_pd(a, a);
  const __m128d bswap = _mm_shuffle_pd(b, b, 1);
  const __m128d t1 = _mm_mul_pd(ar, b);       // [ar*br, ar*bi]
  const __m128d t2 = _mm_mul_pd(ai, bswap);   // [ai*bi, ai*br]
  return _mm_add_pd(t2, _mm_xor_pd(t1, neg_odd()));
}

void fft_stage(double* x, const double* tw, std::size_t n, std::size_t len) {
  const std::size_t half = len / 2;
  for (std::size_t i = 0; i < n; i += len) {
    double* lo = x + 2 * i;
    double* hi = lo + 2 * half;
    for (std::size_t k = 0; k < half; ++k) {
      const __m128d u = _mm_loadu_pd(lo + 2 * k);
      const __m128d w = _mm_loadu_pd(tw + 2 * k);
      const __m128d v = cmul(_mm_loadu_pd(hi + 2 * k), w);
      _mm_storeu_pd(lo + 2 * k, _mm_add_pd(u, v));
      _mm_storeu_pd(hi + 2 * k, _mm_sub_pd(u, v));
    }
  }
}

void complex_conj_mul_f64(Complex* a, const Complex* b, std::size_t n) {
  auto* pa = reinterpret_cast<double*>(a);
  const auto* pb = reinterpret_cast<const double*>(b);
  for (std::size_t i = 0; i < n; ++i)
    _mm_storeu_pd(pa + 2 * i, cmul_conj(_mm_loadu_pd(pa + 2 * i),
                                        _mm_loadu_pd(pb + 2 * i)));
}

void complex_scale_f64(Complex* a, std::size_t n, double s) {
  auto* p = reinterpret_cast<double*>(a);
  const __m128d vs = _mm_set1_pd(s);
  for (std::size_t i = 0; i < n; ++i)
    _mm_storeu_pd(p + 2 * i, _mm_mul_pd(_mm_loadu_pd(p + 2 * i), vs));
}

void fft_f64(double* x, const double* tw, std::size_t n, bool normalize) {
  for (std::size_t len = 2; len <= n; len <<= 1) fft_stage(x, tw + len, n, len);
  if (normalize)
    complex_scale_f64(reinterpret_cast<Complex*>(x), n,
                      1.0 / static_cast<double>(n));
}

void scale_f64(double* x, std::size_t n, double s) {
  const __m128d vs = _mm_set1_pd(s);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    _mm_storeu_pd(x + i, _mm_mul_pd(_mm_loadu_pd(x + i), vs));
  for (; i < n; ++i) x[i] *= s;
}

void sos_section_f64(double* x, std::size_t num_frames, std::size_t width,
                     const SosCoeffs& c, double* z1, double* z2) {
  const __m128d b0 = _mm_set1_pd(c.b0), b1 = _mm_set1_pd(c.b1),
                b2 = _mm_set1_pd(c.b2), a1 = _mm_set1_pd(c.a1),
                a2 = _mm_set1_pd(c.a2);
  for (std::size_t t = 0; t < num_frames; ++t) {
    double* frame = x + t * width;
    std::size_t ch = 0;
    for (; ch + 2 <= width; ch += 2) {
      const __m128d in = _mm_loadu_pd(frame + ch);
      const __m128d s1 = _mm_loadu_pd(z1 + ch);
      const __m128d s2 = _mm_loadu_pd(z2 + ch);
      const __m128d out = _mm_add_pd(_mm_mul_pd(b0, in), s1);
      _mm_storeu_pd(
          z1 + ch,
          _mm_add_pd(_mm_sub_pd(_mm_mul_pd(b1, in), _mm_mul_pd(a1, out)), s2));
      _mm_storeu_pd(z2 + ch,
                    _mm_sub_pd(_mm_mul_pd(b2, in), _mm_mul_pd(a2, out)));
      _mm_storeu_pd(frame + ch, out);
    }
    for (; ch < width; ++ch) {
      const double in = frame[ch];
      const double out = c.b0 * in + z1[ch];
      z1[ch] = c.b1 * in - c.a1 * out + z2[ch];
      z2[ch] = c.b2 * in - c.a2 * out;
      frame[ch] = out;
    }
  }
}

const KernelTable kTable = {
    .isa = Isa::kSse2,
    .fft_f64 = &fft_f64,
    .complex_conj_mul_f64 = &complex_conj_mul_f64,
    .complex_scale_f64 = &complex_scale_f64,
    .scale_f64 = &scale_f64,
    .sos_section_f64 = &sos_section_f64,
    .gate_sums_f64 = &detail::gate_sums_scalar,
    .closed_form_row_f64 = &detail::closed_form_row_scalar,
    .conv3x3_row_f64 = &detail::conv3x3_row_scalar,
};

}  // namespace

namespace detail {
const KernelTable* sse2_table() { return &kTable; }
}  // namespace detail

}  // namespace echoimage::simd

#else  // non-x86 build: lane not compiled in

#include "simd/kernels.hpp"

namespace echoimage::simd::detail {
const KernelTable* sse2_table() { return nullptr; }
}  // namespace echoimage::simd::detail

#endif
