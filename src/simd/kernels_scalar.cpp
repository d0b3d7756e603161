// Scalar reference lane.
//
// These loops ARE the kernel semantics: each one reproduces the historical
// call-site loop (dsp/fft.cpp butterflies, dsp/biquad.cpp DF2T recurrence,
// ...) bit for bit, using the same std::complex arithmetic the seed used.
// Every vector lane is tested differentially against this file; when in
// doubt about association order, this file wins.
#include <complex>
#include <cstddef>

#include "simd/kernels.hpp"

namespace echoimage::simd {
namespace {

using Complex = std::complex<double>;

void fft_stage_f64(double* x, const double* tw, std::size_t n,
                   std::size_t len) {
  auto* c = reinterpret_cast<Complex*>(x);
  const auto* w = reinterpret_cast<const Complex*>(tw);
  const std::size_t half = len / 2;
  for (std::size_t i = 0; i < n; i += len) {
    for (std::size_t k = 0; k < half; ++k) {
      const Complex u = c[i + k];
      const Complex v = c[i + k + half] * w[k];
      c[i + k] = u + v;
      c[i + k + half] = u - v;
    }
  }
}

void complex_conj_mul_f64(Complex* a, const Complex* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) a[i] *= std::conj(b[i]);
}

void complex_scale_f64(Complex* a, std::size_t n, double s) {
  for (std::size_t i = 0; i < n; ++i) a[i] *= s;
}

void scale_f64(double* x, std::size_t n, double s) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= s;
}

void sos_section_f64(double* x, std::size_t num_frames, std::size_t width,
                     const SosCoeffs& c, double* z1, double* z2) {
  for (std::size_t t = 0; t < num_frames; ++t) {
    double* frame = x + t * width;
    for (std::size_t ch = 0; ch < width; ++ch) {
      const double in = frame[ch];
      const double out = c.b0 * in + z1[ch];
      z1[ch] = c.b1 * in - c.a1 * out + z2[ch];
      z2[ch] = c.b2 * in - c.a2 * out;
      frame[ch] = out;
    }
  }
}

const KernelTable kTable = {
    .isa = Isa::kScalar,
    .fft_stage_f64 = &fft_stage_f64,
    .complex_conj_mul_f64 = &complex_conj_mul_f64,
    .complex_scale_f64 = &complex_scale_f64,
    .scale_f64 = &scale_f64,
    .sos_section_f64 = &sos_section_f64,
};

}  // namespace

namespace detail {
const KernelTable* scalar_table() { return &kTable; }
}  // namespace detail

}  // namespace echoimage::simd
