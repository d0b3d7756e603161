// AVX2 lane (256-bit x86).
//
// Same bit-transparency discipline as the SSE2 lane: vertical ops only, in
// the scalar reference's association order. Compiled with -mavx2 -mno-fma
// -ffp-contract=off — FMA contraction would change bits, so it is
// explicitly disabled even though the hardware has it.
#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <complex>
#include <cstddef>

#include "simd/kernels.hpp"

namespace echoimage::simd {
namespace {

using Complex = std::complex<double>;

inline __m256d neg_odd4() { return _mm256_set_pd(-0.0, 0.0, -0.0, 0.0); }

/// Two interleaved complex products per register: p = x * w with
/// re = xr*wr - xi*wi, im = xr*wi + xi*wr. addsub subtracts on even
/// (real) slots and adds on odd (imag) slots — exactly the reference.
inline __m256d cmul(__m256d x, __m256d w) {
  const __m256d xr = _mm256_movedup_pd(x);          // [xr0 xr0 xr1 xr1]
  const __m256d xi = _mm256_permute_pd(x, 0xF);     // [xi0 xi0 xi1 xi1]
  const __m256d wswap = _mm256_permute_pd(w, 0x5);  // [wi0 wr0 wi1 wr1]
  return _mm256_addsub_pd(_mm256_mul_pd(xr, w), _mm256_mul_pd(xi, wswap));
}

/// p = a * conj(b): re = ar*br + ai*bi, im = ai*br - ar*bi.
inline __m256d cmul_conj(__m256d a, __m256d b) {
  const __m256d ar = _mm256_movedup_pd(a);
  const __m256d ai = _mm256_permute_pd(a, 0xF);
  const __m256d bswap = _mm256_permute_pd(b, 0x5);
  const __m256d t1 = _mm256_mul_pd(ar, b);      // [ar*br, ar*bi, ...]
  const __m256d t2 = _mm256_mul_pd(ai, bswap);  // [ai*bi, ai*br, ...]
  return _mm256_add_pd(t2, _mm256_xor_pd(t1, neg_odd4()));
}

void fft_stage_f64(double* x, const double* tw, std::size_t n,
                   std::size_t len) {
  const std::size_t half = len / 2;
  for (std::size_t i = 0; i < n; i += len) {
    double* lo = x + 2 * i;
    double* hi = lo + 2 * half;
    std::size_t k = 0;
    for (; k + 2 <= half; k += 2) {
      const __m256d u = _mm256_loadu_pd(lo + 2 * k);
      const __m256d w = _mm256_loadu_pd(tw + 2 * k);
      const __m256d v = cmul(_mm256_loadu_pd(hi + 2 * k), w);
      _mm256_storeu_pd(lo + 2 * k, _mm256_add_pd(u, v));
      _mm256_storeu_pd(hi + 2 * k, _mm256_sub_pd(u, v));
    }
    for (; k < half; ++k) {
      const auto* wk = reinterpret_cast<const Complex*>(tw) + k;
      auto* cl = reinterpret_cast<Complex*>(lo) + k;
      auto* ch = reinterpret_cast<Complex*>(hi) + k;
      const Complex u = *cl;
      const Complex v = *ch * *wk;
      *cl = u + v;
      *ch = u - v;
    }
  }
}

void complex_conj_mul_f64(Complex* a, const Complex* b, std::size_t n) {
  auto* pa = reinterpret_cast<double*>(a);
  const auto* pb = reinterpret_cast<const double*>(b);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    _mm256_storeu_pd(pa + 2 * i, cmul_conj(_mm256_loadu_pd(pa + 2 * i),
                                           _mm256_loadu_pd(pb + 2 * i)));
  for (; i < n; ++i) a[i] *= std::conj(b[i]);
}

void complex_scale_f64(Complex* a, std::size_t n, double s) {
  auto* p = reinterpret_cast<double*>(a);
  const __m256d vs = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    _mm256_storeu_pd(p + 2 * i,
                     _mm256_mul_pd(_mm256_loadu_pd(p + 2 * i), vs));
  for (; i < n; ++i) a[i] *= s;
}

void scale_f64(double* x, std::size_t n, double s) {
  const __m256d vs = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), vs));
  for (; i < n; ++i) x[i] *= s;
}

void sos_section_f64(double* x, std::size_t num_frames, std::size_t width,
                     const SosCoeffs& c, double* z1, double* z2) {
  const __m256d b0 = _mm256_set1_pd(c.b0), b1 = _mm256_set1_pd(c.b1),
                b2 = _mm256_set1_pd(c.b2), a1 = _mm256_set1_pd(c.a1),
                a2 = _mm256_set1_pd(c.a2);
  for (std::size_t t = 0; t < num_frames; ++t) {
    double* frame = x + t * width;
    std::size_t ch = 0;
    for (; ch + 4 <= width; ch += 4) {
      const __m256d in = _mm256_loadu_pd(frame + ch);
      const __m256d s1 = _mm256_loadu_pd(z1 + ch);
      const __m256d s2 = _mm256_loadu_pd(z2 + ch);
      const __m256d out = _mm256_add_pd(_mm256_mul_pd(b0, in), s1);
      _mm256_storeu_pd(z1 + ch,
                       _mm256_add_pd(_mm256_sub_pd(_mm256_mul_pd(b1, in),
                                                   _mm256_mul_pd(a1, out)),
                                     s2));
      _mm256_storeu_pd(
          z2 + ch,
          _mm256_sub_pd(_mm256_mul_pd(b2, in), _mm256_mul_pd(a2, out)));
      _mm256_storeu_pd(frame + ch, out);
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
    .isa = Isa::kAvx2,
    .fft_stage_f64 = &fft_stage_f64,
    .complex_conj_mul_f64 = &complex_conj_mul_f64,
    .complex_scale_f64 = &complex_scale_f64,
    .scale_f64 = &scale_f64,
    .sos_section_f64 = &sos_section_f64,
};

}  // namespace

namespace detail {
const KernelTable* avx2_table() { return &kTable; }
}  // namespace detail

}  // namespace echoimage::simd

#else  // non-x86 build: lane not compiled in

#include "simd/kernels.hpp"

namespace echoimage::simd::detail {
const KernelTable* avx2_table() { return nullptr; }
}  // namespace echoimage::simd::detail

#endif
