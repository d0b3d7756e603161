// NEON lane (AArch64, 128-bit).
//
// Same bit-transparency discipline as the x86 lanes: vertical ops only, in
// the scalar reference's association order. vld2/vst2 give free
// deinterleaving; multiply-accumulate intrinsics (vmla/vfma) are avoided
// because AArch64 maps them to fused FMLA, which would change bits. The
// translation unit is compiled with -ffp-contract=off for the same reason.
#if defined(__aarch64__)

#include <arm_neon.h>

#include <complex>
#include <cstddef>

#include "simd/kernels.hpp"

namespace echoimage::simd {
namespace {

using Complex = std::complex<double>;

void fft_stage_f64(double* x, const double* tw, std::size_t n,
                   std::size_t len) {
  const std::size_t half = len / 2;
  for (std::size_t i = 0; i < n; i += len) {
    double* lo = x + 2 * i;
    double* hi = lo + 2 * half;
    std::size_t k = 0;
    for (; k + 2 <= half; k += 2) {
      const float64x2x2_t u = vld2q_f64(lo + 2 * k);   // val[0]=re val[1]=im
      const float64x2x2_t xc = vld2q_f64(hi + 2 * k);
      const float64x2x2_t wc = vld2q_f64(tw + 2 * k);
      // v = x * w: re = xr*wr - xi*wi, im = xr*wi + xi*wr.
      const float64x2_t vre = vsubq_f64(vmulq_f64(xc.val[0], wc.val[0]),
                                        vmulq_f64(xc.val[1], wc.val[1]));
      const float64x2_t vim = vaddq_f64(vmulq_f64(xc.val[0], wc.val[1]),
                                        vmulq_f64(xc.val[1], wc.val[0]));
      float64x2x2_t out;
      out.val[0] = vaddq_f64(u.val[0], vre);
      out.val[1] = vaddq_f64(u.val[1], vim);
      vst2q_f64(lo + 2 * k, out);
      out.val[0] = vsubq_f64(u.val[0], vre);
      out.val[1] = vsubq_f64(u.val[1], vim);
      vst2q_f64(hi + 2 * k, out);
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
  for (; i + 2 <= n; i += 2) {
    const float64x2x2_t ac = vld2q_f64(pa + 2 * i);
    const float64x2x2_t bc = vld2q_f64(pb + 2 * i);
    float64x2x2_t out;
    // a * conj(b): re = ar*br + ai*bi, im = ai*br - ar*bi.
    out.val[0] = vaddq_f64(vmulq_f64(ac.val[0], bc.val[0]),
                           vmulq_f64(ac.val[1], bc.val[1]));
    out.val[1] = vsubq_f64(vmulq_f64(ac.val[1], bc.val[0]),
                           vmulq_f64(ac.val[0], bc.val[1]));
    vst2q_f64(pa + 2 * i, out);
  }
  for (; i < n; ++i) a[i] *= std::conj(b[i]);
}

void complex_scale_f64(Complex* a, std::size_t n, double s) {
  auto* p = reinterpret_cast<double*>(a);
  const float64x2_t vs = vdupq_n_f64(s);
  std::size_t i = 0;
  for (; i + 1 <= n; ++i)
    vst1q_f64(p + 2 * i, vmulq_f64(vld1q_f64(p + 2 * i), vs));
}

void scale_f64(double* x, std::size_t n, double s) {
  const float64x2_t vs = vdupq_n_f64(s);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    vst1q_f64(x + i, vmulq_f64(vld1q_f64(x + i), vs));
  for (; i < n; ++i) x[i] *= s;
}

void sos_section_f64(double* x, std::size_t num_frames, std::size_t width,
                     const SosCoeffs& c, double* z1, double* z2) {
  const float64x2_t b0 = vdupq_n_f64(c.b0), b1 = vdupq_n_f64(c.b1),
                    b2 = vdupq_n_f64(c.b2), a1 = vdupq_n_f64(c.a1),
                    a2 = vdupq_n_f64(c.a2);
  for (std::size_t t = 0; t < num_frames; ++t) {
    double* frame = x + t * width;
    std::size_t ch = 0;
    for (; ch + 2 <= width; ch += 2) {
      const float64x2_t in = vld1q_f64(frame + ch);
      const float64x2_t s1 = vld1q_f64(z1 + ch);
      const float64x2_t s2 = vld1q_f64(z2 + ch);
      const float64x2_t out = vaddq_f64(vmulq_f64(b0, in), s1);
      vst1q_f64(z1 + ch,
                vaddq_f64(vsubq_f64(vmulq_f64(b1, in), vmulq_f64(a1, out)),
                          s2));
      vst1q_f64(z2 + ch,
                vsubq_f64(vmulq_f64(b2, in), vmulq_f64(a2, out)));
      vst1q_f64(frame + ch, out);
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
    .isa = Isa::kNeon,
    .fft_stage_f64 = &fft_stage_f64,
    .complex_conj_mul_f64 = &complex_conj_mul_f64,
    .complex_scale_f64 = &complex_scale_f64,
    .scale_f64 = &scale_f64,
    .sos_section_f64 = &sos_section_f64,
};

}  // namespace

namespace detail {
const KernelTable* neon_table() { return &kTable; }
}  // namespace detail

}  // namespace echoimage::simd

#else  // non-AArch64 build: lane not compiled in

#include "simd/kernels.hpp"

namespace echoimage::simd::detail {
const KernelTable* neon_table() { return nullptr; }
}  // namespace echoimage::simd::detail

#endif
