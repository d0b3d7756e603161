// AVX2 lane (256-bit x86).
//
// Same bit-transparency discipline as the SSE2 lane: vertical ops only, in
// the scalar reference's association order. Compiled with -mavx2 -mno-fma
// -ffp-contract=off — FMA contraction would change bits, so it is
// explicitly disabled even though the hardware has it. The FFT runs two
// butterfly stages per pass over memory, the SOS section keeps up to 8
// channels' states in registers across frames, the gate sums run table
// columns in lanes, the sweep four pixels of a row, and the convolution
// four output channels per register; each lane does the scalar
// reference's operations for its own output, in its order.
#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <complex>
#include <cstddef>
#include <cstdint>

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

/// Stages len 2 and 4 in one pass over each block of four: lo/hi hold
/// the len-2 pairs (x0, x2)/(x1, x3), then u/h the len-4 pairs
/// (x0, x1)/(x2, x3). With `last`, outputs are multiplied by `scale`.
void fft_stages_2_4(double* x, const double* tw, std::size_t n, bool last,
                    __m256d scale) {
  const __m256d w2 =
      _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(tw + 2));
  const __m256d w4 = _mm256_loadu_pd(tw + 4);
  for (std::size_t i = 0; i < n; i += 4) {
    double* p = x + 2 * i;
    const __m256d a = _mm256_loadu_pd(p), b = _mm256_loadu_pd(p + 4);
    const __m256d lo = _mm256_permute2f128_pd(a, b, 0x20);  // x0 x2
    const __m256d hi = _mm256_permute2f128_pd(a, b, 0x31);  // x1 x3
    const __m256d v2 = cmul(hi, w2);
    const __m256d s0 = _mm256_add_pd(lo, v2);  // x0' x2'
    const __m256d s1 = _mm256_sub_pd(lo, v2);  // x1' x3'
    const __m256d u = _mm256_permute2f128_pd(s0, s1, 0x20);  // x0' x1'
    const __m256d h = _mm256_permute2f128_pd(s0, s1, 0x31);  // x2' x3'
    const __m256d v4 = cmul(h, w4);
    __m256d y0 = _mm256_add_pd(u, v4), y1 = _mm256_sub_pd(u, v4);
    if (last) {
      y0 = _mm256_mul_pd(y0, scale);
      y1 = _mm256_mul_pd(y1, scale);
    }
    _mm256_storeu_pd(p, y0);
    _mm256_storeu_pd(p + 4, y1);
  }
}

/// Stages len and 2 len (len >= 4) in one pass: per block of 2 len and
/// k in [0, len/2), the four elements a = x[i+k], b = x[i+k+len/2],
/// c = x[i+k+len], d = x[i+k+len+len/2] take stage len's butterflies
/// (a, b) and (c, d) with w_len[k], then stage 2 len's (a, c) with
/// w_2len[k] and (b, d) with w_2len[k+len/2], two values of k per
/// register.
void fft_stage_pair(double* x, const double* tw, std::size_t n,
                    std::size_t len, bool last, __m256d scale) {
  const std::size_t half = len / 2;
  const double* w1 = tw + len;
  const double* w2 = tw + 2 * len;
  for (std::size_t i = 0; i < n; i += 2 * len) {
    double* pa = x + 2 * i;
    double* pb = pa + 2 * half;
    double* pc = pa + 2 * len;
    double* pd = pc + 2 * half;
    for (std::size_t k = 0; k < half; k += 2) {
      const __m256d w = _mm256_loadu_pd(w1 + 2 * k);
      const __m256d a = _mm256_loadu_pd(pa + 2 * k);
      const __m256d vb = cmul(_mm256_loadu_pd(pb + 2 * k), w);
      const __m256d c = _mm256_loadu_pd(pc + 2 * k);
      const __m256d vd = cmul(_mm256_loadu_pd(pd + 2 * k), w);
      const __m256d a1 = _mm256_add_pd(a, vb), b1 = _mm256_sub_pd(a, vb);
      const __m256d c1 = _mm256_add_pd(c, vd), d1 = _mm256_sub_pd(c, vd);
      const __m256d vc = cmul(c1, _mm256_loadu_pd(w2 + 2 * k));
      const __m256d vd1 = cmul(d1, _mm256_loadu_pd(w2 + 2 * (k + half)));
      __m256d ya = _mm256_add_pd(a1, vc), yc = _mm256_sub_pd(a1, vc);
      __m256d yb = _mm256_add_pd(b1, vd1), yd = _mm256_sub_pd(b1, vd1);
      if (last) {
        ya = _mm256_mul_pd(ya, scale);
        yb = _mm256_mul_pd(yb, scale);
        yc = _mm256_mul_pd(yc, scale);
        yd = _mm256_mul_pd(yd, scale);
      }
      _mm256_storeu_pd(pa + 2 * k, ya);
      _mm256_storeu_pd(pb + 2 * k, yb);
      _mm256_storeu_pd(pc + 2 * k, yc);
      _mm256_storeu_pd(pd + 2 * k, yd);
    }
  }
}

/// The last stage alone (len >= 4), outputs scaled when `normalize`.
void fft_last_stage(double* x, const double* tw, std::size_t n,
                    std::size_t len, bool normalize, __m256d scale) {
  const std::size_t half = len / 2;
  const double* w1 = tw + len;
  for (std::size_t i = 0; i < n; i += len) {
    double* lo = x + 2 * i;
    double* hi = lo + 2 * half;
    for (std::size_t k = 0; k < half; k += 2) {
      const __m256d u = _mm256_loadu_pd(lo + 2 * k);
      const __m256d v =
          cmul(_mm256_loadu_pd(hi + 2 * k), _mm256_loadu_pd(w1 + 2 * k));
      __m256d y0 = _mm256_add_pd(u, v), y1 = _mm256_sub_pd(u, v);
      if (normalize) {
        y0 = _mm256_mul_pd(y0, scale);
        y1 = _mm256_mul_pd(y1, scale);
      }
      _mm256_storeu_pd(lo + 2 * k, y0);
      _mm256_storeu_pd(hi + 2 * k, y1);
    }
  }
}

/// Stages 2 and 4 in one pass, then two stages per pass, then an odd last
/// stage on its own; the 1/N product is taken on the last pass's outputs.
/// Every element gets the scalar lane's butterflies in its stage order.
void fft_f64(double* x, const double* tw, std::size_t n, bool normalize) {
  const double s = 1.0 / static_cast<double>(n);
  if (n == 2) {
    auto* c = reinterpret_cast<Complex*>(x);
    const Complex u = c[0];
    const Complex v = c[1] * reinterpret_cast<const Complex*>(tw)[1];
    c[0] = u + v;
    c[1] = u - v;
    if (normalize) {
      c[0] *= s;
      c[1] *= s;
    }
    return;
  }
  const __m256d scale = _mm256_set1_pd(s);
  fft_stages_2_4(x, tw, n, normalize && n == 4, scale);
  std::size_t len = 8;
  for (; 2 * len <= n; len *= 4)
    fft_stage_pair(x, tw, n, len, normalize && 2 * len == n, scale);
  if (len == n) fft_last_stage(x, tw, n, len, normalize, scale);
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

/// Channels [0, W) of every frame, W <= 8, as registers of 4, then 2,
/// then 1 channel whose states stay in registers across all frames.
template <std::size_t W>
void sos_in_registers(double* x, std::size_t num_frames, const SosCoeffs& c,
                      double* z1, double* z2) {
  constexpr std::size_t kQuads = W / 4;
  constexpr bool kPair = W % 4 >= 2;
  constexpr bool kOne = W % 2 == 1;
  constexpr std::size_t kPairAt = 4 * kQuads;
  const __m256d b0 = _mm256_set1_pd(c.b0), b1 = _mm256_set1_pd(c.b1),
                b2 = _mm256_set1_pd(c.b2), a1 = _mm256_set1_pd(c.a1),
                a2 = _mm256_set1_pd(c.a2);
  const __m128d b0p = _mm_set1_pd(c.b0), b1p = _mm_set1_pd(c.b1),
                b2p = _mm_set1_pd(c.b2), a1p = _mm_set1_pd(c.a1),
                a2p = _mm_set1_pd(c.a2);
  __m256d s1[kQuads > 0 ? kQuads : 1], s2[kQuads > 0 ? kQuads : 1];
  for (std::size_t q = 0; q < kQuads; ++q) {
    s1[q] = _mm256_loadu_pd(z1 + 4 * q);
    s2[q] = _mm256_loadu_pd(z2 + 4 * q);
  }
  __m128d p1 = _mm_setzero_pd(), p2 = _mm_setzero_pd();
  if constexpr (kPair) {
    p1 = _mm_loadu_pd(z1 + kPairAt);
    p2 = _mm_loadu_pd(z2 + kPairAt);
  }
  double o1 = 0.0, o2 = 0.0;
  if constexpr (kOne) {
    o1 = z1[W - 1];
    o2 = z2[W - 1];
  }
  for (std::size_t t = 0; t < num_frames; ++t) {
    double* frame = x + t * W;
    for (std::size_t q = 0; q < kQuads; ++q) {
      const __m256d in = _mm256_loadu_pd(frame + 4 * q);
      const __m256d out = _mm256_add_pd(_mm256_mul_pd(b0, in), s1[q]);
      s1[q] = _mm256_add_pd(
          _mm256_sub_pd(_mm256_mul_pd(b1, in), _mm256_mul_pd(a1, out)), s2[q]);
      s2[q] = _mm256_sub_pd(_mm256_mul_pd(b2, in), _mm256_mul_pd(a2, out));
      _mm256_storeu_pd(frame + 4 * q, out);
    }
    if constexpr (kPair) {
      const __m128d in = _mm_loadu_pd(frame + kPairAt);
      const __m128d out = _mm_add_pd(_mm_mul_pd(b0p, in), p1);
      p1 = _mm_add_pd(_mm_sub_pd(_mm_mul_pd(b1p, in), _mm_mul_pd(a1p, out)),
                      p2);
      p2 = _mm_sub_pd(_mm_mul_pd(b2p, in), _mm_mul_pd(a2p, out));
      _mm_storeu_pd(frame + kPairAt, out);
    }
    if constexpr (kOne) {
      const double in = frame[W - 1];
      const double out = c.b0 * in + o1;
      o1 = c.b1 * in - c.a1 * out + o2;
      o2 = c.b2 * in - c.a2 * out;
      frame[W - 1] = out;
    }
  }
  for (std::size_t q = 0; q < kQuads; ++q) {
    _mm256_storeu_pd(z1 + 4 * q, s1[q]);
    _mm256_storeu_pd(z2 + 4 * q, s2[q]);
  }
  if constexpr (kPair) {
    _mm_storeu_pd(z1 + kPairAt, p1);
    _mm_storeu_pd(z2 + kPairAt, p2);
  }
  if constexpr (kOne) {
    z1[W - 1] = o1;
    z2[W - 1] = o2;
  }
}

void sos_section_f64(double* x, std::size_t num_frames, std::size_t width,
                     const SosCoeffs& c, double* z1, double* z2) {
  switch (width) {
    case 1: sos_in_registers<1>(x, num_frames, c, z1, z2); return;
    case 2: sos_in_registers<2>(x, num_frames, c, z1, z2); return;
    case 3: sos_in_registers<3>(x, num_frames, c, z1, z2); return;
    case 4: sos_in_registers<4>(x, num_frames, c, z1, z2); return;
    case 5: sos_in_registers<5>(x, num_frames, c, z1, z2); return;
    case 6: sos_in_registers<6>(x, num_frames, c, z1, z2); return;
    case 7: sos_in_registers<7>(x, num_frames, c, z1, z2); return;
    case 8: sos_in_registers<8>(x, num_frames, c, z1, z2); return;
    default: break;
  }
  // Wider inputs: the states round-trip through memory every frame.
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

/// Columns [c, c + 4 NV) of the gate sums, one accumulator per register
/// held across every row.
template <std::size_t NV>
void sum_columns(const double* table, std::size_t width, std::size_t first,
                 std::size_t last, std::size_t c, double* out) {
  __m256d acc[NV];
  for (std::size_t v = 0; v < NV; ++v) acc[v] = _mm256_setzero_pd();
  for (std::size_t t = first; t < last; ++t) {
    const double* row = table + t * width + c;
    for (std::size_t v = 0; v < NV; ++v)
      acc[v] = _mm256_add_pd(acc[v], _mm256_loadu_pd(row + 4 * v));
  }
  for (std::size_t v = 0; v < NV; ++v) _mm256_storeu_pd(out + c + 4 * v, acc[v]);
}

void gate_sums_f64(const double* table, std::size_t width, std::size_t first,
                   std::size_t last, double* out) {
  std::size_t c = 0;
  // Up to 12 registers of columns per pass over the rows: a 6-mic gate
  // table padded to 44 columns takes one pass.
  for (; c + 48 <= width; c += 48)
    sum_columns<12>(table, width, first, last, c, out);
  switch ((width - c) / 4) {
    case 11: sum_columns<11>(table, width, first, last, c, out); break;
    case 10: sum_columns<10>(table, width, first, last, c, out); break;
    case 9: sum_columns<9>(table, width, first, last, c, out); break;
    case 8: sum_columns<8>(table, width, first, last, c, out); break;
    case 7: sum_columns<7>(table, width, first, last, c, out); break;
    case 6: sum_columns<6>(table, width, first, last, c, out); break;
    case 5: sum_columns<5>(table, width, first, last, c, out); break;
    case 4: sum_columns<4>(table, width, first, last, c, out); break;
    case 3: sum_columns<3>(table, width, first, last, c, out); break;
    case 2: sum_columns<2>(table, width, first, last, c, out); break;
    case 1: sum_columns<1>(table, width, first, last, c, out); break;
    default: break;
  }
  c += (width - c) / 4 * 4;
  for (; c < width; ++c) {
    double sum = 0.0;
    for (std::size_t t = first; t < last; ++t) sum += table[t * width + c];
    out[c] = sum;
  }
}

// Rows of more microphones than this take the scalar path whole.
constexpr std::size_t kLaneMics = 8;
constexpr std::size_t kLanePairs = kLaneMics * (kLaneMics - 1) / 2;

/// Four pixels' copies of one value each: element l from p[l * stride].
inline __m256d gather4(const double* p, std::size_t stride) {
  return _mm256_set_pd(p[3 * stride], p[2 * stride], p[stride], p[0]);
}

/// f[0] + 2q with q += f[1+2k]*re_k - f[2+2k]*im_k in pair order, for one
/// form shared by the four lanes (the inverse, or four pixels of a gate).
inline __m256d shared_form_value(const double* f, const __m256d* re,
                                 const __m256d* im, std::size_t num_pairs) {
  __m256d q = _mm256_setzero_pd();
  for (std::size_t k = 0; k < num_pairs; ++k)
    q = _mm256_add_pd(
        q, _mm256_sub_pd(_mm256_mul_pd(_mm256_broadcast_sd(f + 1 + 2 * k), re[k]),
                         _mm256_mul_pd(_mm256_broadcast_sd(f + 2 + 2 * k), im[k])));
  return _mm256_add_pd(_mm256_broadcast_sd(f),
                       _mm256_mul_pd(_mm256_set1_pd(2.0), q));
}

/// The same value for four forms, lane l reading f_l. Four values of each
/// form at a time go through a 4x4 transpose and are consumed in order:
/// value k = 0 is the trace, odd k starts pair (k-1)/2 (the product with
/// re), even k completes pair (k-2)/2; the last (1 + 2P) % 4 values are
/// gathered one by one.
inline __m256d gathered_form_value(const double* f0, const double* f1,
                                   const double* f2, const double* f3,
                                   const __m256d* re, const __m256d* im,
                                   std::size_t num_pairs) {
  const std::size_t n = 1 + 2 * num_pairs;
  __m256d trace = _mm256_setzero_pd(), q = _mm256_setzero_pd(),
          pending = _mm256_setzero_pd();
  const auto take = [&](std::size_t k, __m256d v) {
    if (k == 0) {
      trace = v;
    } else if (k % 2 == 1) {
      pending = _mm256_mul_pd(v, re[(k - 1) / 2]);
    } else {
      q = _mm256_add_pd(q, _mm256_sub_pd(pending,
                                         _mm256_mul_pd(v, im[(k - 2) / 2])));
    }
  };
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256d r0 = _mm256_loadu_pd(f0 + k), r1 = _mm256_loadu_pd(f1 + k),
                  r2 = _mm256_loadu_pd(f2 + k), r3 = _mm256_loadu_pd(f3 + k);
    const __m256d t0 = _mm256_unpacklo_pd(r0, r1);
    const __m256d t1 = _mm256_unpackhi_pd(r0, r1);
    const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
    const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
    take(k, _mm256_permute2f128_pd(t0, t2, 0x20));
    take(k + 1, _mm256_permute2f128_pd(t1, t3, 0x20));
    take(k + 2, _mm256_permute2f128_pd(t0, t2, 0x31));
    take(k + 3, _mm256_permute2f128_pd(t1, t3, 0x31));
  }
  for (; k < n; ++k) take(k, _mm256_set_pd(f3[k], f2[k], f1[k], f0[k]));
  return _mm256_add_pd(trace, _mm256_mul_pd(_mm256_set1_pd(2.0), q));
}

void closed_form_row_f64(const SweepRow& row) {
  const std::size_t m = row.mics;
  if (m > kLaneMics) {
    detail::closed_form_pixels_scalar(row, 0, row.pixels);
    return;
  }
  const std::size_t num_pairs = m * (m - 1) / 2;
  const std::size_t form_size = 1 + 2 * num_pairs;
  const bool coherent = row.mix < 1.0;
  const __m256d coherent_share = _mm256_set1_pd(1.0 - row.mix);
  const __m256d incoherent_share = _mm256_set1_pd(row.mix);
  __m256d steer_re[kLaneMics] = {}, steer_im[kLaneMics] = {};
  __m256d step_re[kLaneMics] = {}, step_im[kLaneMics] = {};
  __m256d pair_re[kLanePairs] = {}, pair_im[kLanePairs] = {};
  std::size_t px = 0;
  for (; px + 4 <= row.pixels; px += 4) {
    const std::uint32_t* g = row.gate + px;
    const bool one_gate = g[0] == g[1] && g[0] == g[2] && g[0] == g[3];
    if (coherent) {
      const double* base = row.base + px * 2 * m;
      for (std::size_t i = 0; i < m; ++i) {
        steer_re[i] = gather4(base + 2 * i, 2 * m);
        steer_im[i] = gather4(base + 2 * i + 1, 2 * m);
      }
      if (row.bands > 1) {
        const double* step = row.step + px * 2 * m;
        for (std::size_t i = 0; i < m; ++i) {
          step_re[i] = gather4(step + 2 * i, 2 * m);
          step_im[i] = gather4(step + 2 * i + 1, 2 * m);
        }
      }
    }
    for (std::size_t band = 0; band < row.bands; ++band) {
      __m256d den2 = _mm256_set1_pd(1.0);
      if (coherent) {
        if (band > 0) {
          for (std::size_t i = 0; i < m; ++i) {
            const __m256d re = steer_re[i], im = steer_im[i];
            steer_re[i] = _mm256_sub_pd(_mm256_mul_pd(re, step_re[i]),
                                        _mm256_mul_pd(im, step_im[i]));
            steer_im[i] = _mm256_add_pd(_mm256_mul_pd(re, step_im[i]),
                                        _mm256_mul_pd(im, step_re[i]));
          }
        }
        std::size_t k = 0;
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t j = i + 1; j < m; ++j, ++k) {
            pair_re[k] = _mm256_add_pd(_mm256_mul_pd(steer_re[i], steer_re[j]),
                                       _mm256_mul_pd(steer_im[i], steer_im[j]));
            pair_im[k] = _mm256_sub_pd(_mm256_mul_pd(steer_re[i], steer_im[j]),
                                       _mm256_mul_pd(steer_im[i], steer_re[j]));
          }
        }
        if (row.inverse != nullptr) {
          const __m256d den = shared_form_value(row.inverse[band], pair_re,
                                                pair_im, num_pairs);
          den2 = _mm256_mul_pd(den, den);
        }
      }
      for (std::size_t b = 0; b < row.beeps; ++b) {
        const std::size_t slot = b * row.bands + band;
        __m256d e = _mm256_setzero_pd();
        if (coherent) {
          const double* forms = row.forms[slot];
          const __m256d value =
              one_gate
                  ? shared_form_value(forms + g[0] * form_size, pair_re,
                                      pair_im, num_pairs)
                  : gathered_form_value(
                        forms + g[0] * form_size, forms + g[1] * form_size,
                        forms + g[2] * form_size, forms + g[3] * form_size,
                        pair_re, pair_im, num_pairs);
          e = _mm256_add_pd(
              e, _mm256_mul_pd(coherent_share, _mm256_div_pd(value, den2)));
        }
        if (row.mix > 0.0) {
          const double* inc = row.incoherent[slot];
          e = _mm256_add_pd(
              e, _mm256_mul_pd(incoherent_share,
                               _mm256_set_pd(inc[g[3]], inc[g[2]], inc[g[1]],
                                             inc[g[0]])));
        }
        double* out = row.out[slot] + px;
        _mm256_storeu_pd(out, _mm256_add_pd(_mm256_loadu_pd(out), e));
      }
    }
  }
  detail::closed_form_pixels_scalar(row, px, row.pixels);
}

/// Output channels [co, co + 4 NV) of pixel `ox`, plus the next `tail`
/// (0-3) channels through a masked register when kTail: one accumulator
/// register per four channels, held across every tap.
template <std::size_t NV, bool kTail>
void conv_channels(const Conv3x3& conv, std::size_t oy, std::size_t ox,
                   std::size_t co, __m256i tail_mask, double* yrow) {
  constexpr std::size_t kRegs = NV + (kTail ? 1 : 0);
  const std::size_t h = conv.height, w = conv.width;
  const std::size_t in = conv.in, out = conv.out;
  __m256d acc[kRegs];
  for (std::size_t v = 0; v < kRegs; ++v) acc[v] = _mm256_setzero_pd();
  for (std::size_t ky = 0; ky < 3; ++ky) {
    const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy + ky) - 1;
    if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
    for (std::size_t kx = 0; kx < 3; ++kx) {
      const std::ptrdiff_t ix = static_cast<std::ptrdiff_t>(ox + kx) - 1;
      if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
      const double* x = conv.input + (static_cast<std::size_t>(iy) * w +
                                      static_cast<std::size_t>(ix)) * in;
      const double* taps = conv.weights + (ky * 3 + kx) * in * out + co;
      for (std::size_t ci = 0; ci < in; ++ci) {
        const double v = x[ci];
        if (v == 0.0) continue;
        const __m256d vv = _mm256_set1_pd(v);
        const double* wrow = taps + ci * out;
        for (std::size_t r = 0; r < NV; ++r)
          acc[r] = _mm256_add_pd(
              acc[r], _mm256_mul_pd(vv, _mm256_loadu_pd(wrow + 4 * r)));
        if constexpr (kTail)
          acc[NV] = _mm256_add_pd(
              acc[NV],
              _mm256_mul_pd(vv, _mm256_maskload_pd(wrow + 4 * NV, tail_mask)));
      }
    }
  }
  const double* bias = conv.bias + co;
  double* y = yrow + co;
  for (std::size_t r = 0; r < NV; ++r)
    _mm256_storeu_pd(y + 4 * r,
                     _mm256_add_pd(acc[r], _mm256_loadu_pd(bias + 4 * r)));
  if constexpr (kTail)
    _mm256_maskstore_pd(
        y + 4 * NV, tail_mask,
        _mm256_add_pd(acc[NV], _mm256_maskload_pd(bias + 4 * NV, tail_mask)));
}

/// The last 4 NV + tail (tail < 4) output channels of a pixel.
template <std::size_t NV>
void conv_rest(const Conv3x3& conv, std::size_t oy, std::size_t ox,
               std::size_t co, std::size_t tail, double* yrow) {
  if (tail > 0) {
    const __m256i mask =
        _mm256_set_epi64x(0, tail > 2 ? -1 : 0, tail > 1 ? -1 : 0, -1);
    conv_channels<NV, true>(conv, oy, ox, co, mask, yrow);
  } else if constexpr (NV > 0) {
    conv_channels<NV, false>(conv, oy, ox, co, _mm256_setzero_si256(), yrow);
  }
}

void conv3x3_row_f64(const Conv3x3& conv, std::size_t oy, double* y) {
  const std::size_t out = conv.out;
  for (std::size_t ox = 0; ox < conv.width; ++ox) {
    double* yrow = y + ox * out;
    std::size_t co = 0;
    for (; co + 32 <= out; co += 32)
      conv_channels<8, false>(conv, oy, ox, co, _mm256_setzero_si256(), yrow);
    const std::size_t rest = out - co, tail = rest % 4;
    switch (rest / 4) {
      case 7: conv_rest<7>(conv, oy, ox, co, tail, yrow); break;
      case 6: conv_rest<6>(conv, oy, ox, co, tail, yrow); break;
      case 5: conv_rest<5>(conv, oy, ox, co, tail, yrow); break;
      case 4: conv_rest<4>(conv, oy, ox, co, tail, yrow); break;
      case 3: conv_rest<3>(conv, oy, ox, co, tail, yrow); break;
      case 2: conv_rest<2>(conv, oy, ox, co, tail, yrow); break;
      case 1: conv_rest<1>(conv, oy, ox, co, tail, yrow); break;
      default:
        if (tail > 0) conv_rest<0>(conv, oy, ox, co, tail, yrow);
        break;
    }
  }
}

const KernelTable kTable = {
    .isa = Isa::kAvx2,
    .fft_f64 = &fft_f64,
    .complex_conj_mul_f64 = &complex_conj_mul_f64,
    .complex_scale_f64 = &complex_scale_f64,
    .scale_f64 = &scale_f64,
    .sos_section_f64 = &sos_section_f64,
    .gate_sums_f64 = &gate_sums_f64,
    .closed_form_row_f64 = &closed_form_row_f64,
    .conv3x3_row_f64 = &conv3x3_row_f64,
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
