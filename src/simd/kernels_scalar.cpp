// Scalar reference lane.
//
// These loops ARE the kernel semantics: each one reproduces the historical
// call-site loop (dsp/fft.cpp butterflies, dsp/biquad.cpp DF2T recurrence,
// the imager's gate covariance and grid sweep, ml/cnn.cpp's convolution,
// ...) bit for bit, using the same arithmetic the seed used. Every vector
// lane is tested differentially against this file; when in doubt about
// association order, this file wins.
#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "simd/kernels.hpp"

namespace echoimage::simd {
namespace {

using Complex = std::complex<double>;

void complex_conj_mul_f64(Complex* a, const Complex* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) a[i] *= std::conj(b[i]);
}

void complex_scale_f64(Complex* a, std::size_t n, double s) {
  for (std::size_t i = 0; i < n; ++i) a[i] *= s;
}

/// The historical transform after its permutation: one pass per stage,
/// then the separate 1/N pass.
void fft_f64(double* x, const double* tw, std::size_t n, bool normalize) {
  auto* c = reinterpret_cast<Complex*>(x);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const auto* w = reinterpret_cast<const Complex*>(tw) + half;
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const Complex u = c[i + k];
        const Complex v = c[i + k + half] * w[k];
        c[i + k] = u + v;
        c[i + k + half] = u - v;
      }
    }
  }
  if (normalize) complex_scale_f64(c, n, 1.0 / static_cast<double>(n));
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

/// q = sum_k f[1+2k]*pairs[2k] - f[2+2k]*pairs[2k+1] in pair order;
/// the form's value a^H B a is f[0] + 2q.
double packed_form_value(const double* form, const double* pairs,
                         std::size_t num_pairs) {
  double q = 0.0;
  for (std::size_t p = 0; p < 2 * num_pairs; p += 2)
    q += form[1 + p] * pairs[p] - form[2 + p] * pairs[p + 1];
  return form[0] + 2.0 * q;
}

// Scratch of the sweep's scalar path: a pixel's steering entries (2M')
// and pair products (M'(M'-1)), on the stack up to this many doubles.
constexpr std::size_t kStackScratch = 2 * 16 + 16 * 15;

const KernelTable kTable = {
    .isa = Isa::kScalar,
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

const KernelTable* scalar_table() { return &kTable; }

void gate_sums_scalar(const double* table, std::size_t width,
                      std::size_t first, std::size_t last, double* out) {
  for (std::size_t c = 0; c < width; ++c) {
    double sum = 0.0;
    for (std::size_t t = first; t < last; ++t) sum += table[t * width + c];
    out[c] = sum;
  }
}

void closed_form_pixels_scalar(const SweepRow& row, std::size_t begin,
                               std::size_t end) {
  const std::size_t m = row.mics;
  const std::size_t num_pairs = m * (m - 1) / 2;
  const std::size_t form_size = 1 + 2 * num_pairs;
  const bool coherent = row.mix < 1.0;
  double stack[kStackScratch] = {};
  std::vector<double> heap;
  double* steering = stack;
  if (2 * m + 2 * num_pairs > kStackScratch) {
    heap.resize(2 * m + 2 * num_pairs);
    steering = heap.data();
  }
  double* pairs = steering + 2 * m;
  for (std::size_t px = begin; px < end; ++px) {
    const std::uint32_t g = row.gate[px];
    if (coherent)
      for (std::size_t i = 0; i < 2 * m; ++i)
        steering[i] = row.base[px * 2 * m + i];
    for (std::size_t band = 0; band < row.bands; ++band) {
      double den2 = 1.0;
      if (coherent) {
        if (band > 0) {
          const double* step = row.step + px * 2 * m;
          for (std::size_t i = 0; i < m; ++i) {
            const double re = steering[2 * i], im = steering[2 * i + 1];
            const double step_re = step[2 * i], step_im = step[2 * i + 1];
            steering[2 * i] = re * step_re - im * step_im;
            steering[2 * i + 1] = re * step_im + im * step_re;
          }
        }
        double* p = pairs;
        for (std::size_t i = 0; i < m; ++i) {
          const double ci = steering[2 * i], si = steering[2 * i + 1];
          for (std::size_t j = i + 1; j < m; ++j) {
            const double cj = steering[2 * j], sj = steering[2 * j + 1];
            *p++ = ci * cj + si * sj;
            *p++ = ci * sj - si * cj;
          }
        }
        const double den =
            row.inverse != nullptr
                ? packed_form_value(row.inverse[band], pairs, num_pairs)
                : 1.0;
        den2 = den * den;
      }
      for (std::size_t b = 0; b < row.beeps; ++b) {
        const std::size_t slot = b * row.bands + band;
        double e = 0.0;
        if (coherent)
          e += (1.0 - row.mix) *
               (packed_form_value(row.forms[slot] + g * form_size, pairs,
                                  num_pairs) /
                den2);
        if (row.mix > 0.0) e += row.mix * row.incoherent[slot][g];
        row.out[slot][px] += e;
      }
    }
  }
}

void closed_form_row_scalar(const SweepRow& row) {
  closed_form_pixels_scalar(row, 0, row.pixels);
}

void conv3x3_row_scalar(const Conv3x3& conv, std::size_t oy, double* y) {
  const std::size_t h = conv.height, w = conv.width;
  const std::size_t in = conv.in, out = conv.out;
  for (std::size_t ox = 0; ox < w; ++ox) {
    double* yrow = y + ox * out;
    for (std::size_t co = 0; co < out; ++co) yrow[co] = 0.0;
    for (std::size_t ky = 0; ky < 3; ++ky) {
      const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy + ky) - 1;
      if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
      for (std::size_t kx = 0; kx < 3; ++kx) {
        const std::ptrdiff_t ix = static_cast<std::ptrdiff_t>(ox + kx) - 1;
        if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
        const double* x =
            conv.input + (static_cast<std::size_t>(iy) * w +
                          static_cast<std::size_t>(ix)) * in;
        for (std::size_t ci = 0; ci < in; ++ci) {
          const double v = x[ci];
          if (v == 0.0) continue;
          const double* wrow = conv.weights + ((ky * 3 + kx) * in + ci) * out;
          for (std::size_t co = 0; co < out; ++co) yrow[co] += v * wrow[co];
        }
      }
    }
    for (std::size_t co = 0; co < out; ++co) yrow[co] += conv.bias[co];
  }
}

}  // namespace detail

}  // namespace echoimage::simd
