// FFT property + fuzz tests over every power-of-two size from 1 to 1024,
// and a bitwise oracle up to 8192.
//
// Properties checked on every supported ISA lane:
//   * round-trip: inverse(forward(x)) == x to tight relative tolerance,
//   * Parseval: sum |x|^2 == (1/N) sum |X|^2,
//   * linearity spot check: fft(a x + b y) == a fft(x) + b fft(y),
//   * the in-place kernel rejects non-power-of-two sizes with a clean
//     std::invalid_argument instead of corrupting memory,
//   * cross-lane bit-exactness: the full transform (not just one stage)
//     produces identical bits on every lane,
//   * the historical loop as the oracle: fft_pow2_in_place, the
//     zero-padded bit-reversed copy-in (fft_pow2_padded) and its three
//     callers (analytic_signal, template_spectrum, matched_filter_complex)
//     reproduce a test-local copy of the original radix-2 loop bit for bit
//     at every size from 1 to 8192, in both directions,
// plus a seeded fuzz sweep in the style of serialize_fuzz_test: random
// lengths (zero-padded to the next power of two, as callers do), random
// magnitudes spanning many decades.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <numbers>
#include <random>
#include <stdexcept>
#include <vector>

#include "dsp/fft.hpp"
#include "dsp/hilbert.hpp"
#include "dsp/matched_filter.hpp"
#include "simd/fft_plan.hpp"
#include "simd/isa.hpp"

namespace echoimage::dsp {
namespace {

using Complex = std::complex<double>;

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed,
                                   double max_decade = 3.0) {
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> mant(-1.0, 1.0);
  std::uniform_real_distribution<double> dec(-max_decade, max_decade);
  std::vector<Complex> x(n);
  for (auto& v : x)
    v = Complex(mant(gen) * std::pow(10.0, dec(gen)),
                mant(gen) * std::pow(10.0, dec(gen)));
  return x;
}

double rms(const std::vector<Complex>& x) {
  double s = 0.0;
  for (const auto& v : x) s += std::norm(v);
  return std::sqrt(s / static_cast<double>(std::max<std::size_t>(1, x.size())));
}

std::vector<Complex> transform(std::vector<Complex> x, bool inverse) {
  fft_pow2_in_place(x, inverse);
  return x;
}

void check_round_trip_and_parseval(std::size_t n, std::uint64_t seed) {
  const std::vector<Complex> x = random_signal(n, seed);
  std::vector<Complex> spec = transform(x, false);
  ASSERT_EQ(spec.size(), n);
  // Parseval: time-domain energy equals spectral energy / N.
  double et = 0.0, ef = 0.0;
  for (const auto& v : x) et += std::norm(v);
  for (const auto& v : spec) ef += std::norm(v);
  if (n > 0) {
    EXPECT_NEAR(et, ef / static_cast<double>(n), 1e-9 * (et + 1e-300))
        << "Parseval n=" << n;
  }
  const std::vector<Complex> back = transform(spec, true);
  ASSERT_EQ(back.size(), n);
  const double scale = rms(x) + 1e-300;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(back[i].real(), x[i].real(), 1e-9 * scale)
        << "round-trip n=" << n << " i=" << i;
    EXPECT_NEAR(back[i].imag(), x[i].imag(), 1e-9 * scale)
        << "round-trip n=" << n << " i=" << i;
  }
}

TEST(FftProperty, RoundTripAndParsevalAllSizes) {
  // Every power of two from the one-point edge to 1024, on every lane.
  for (simd::Isa isa : simd::supported_isas()) {
    simd::ScopedIsa forced(isa);
    std::uint64_t seed = 0xF57 + static_cast<unsigned>(isa);
    for (std::size_t n = 1; n <= 1024; n *= 2)
      check_round_trip_and_parseval(n, seed++);
  }
}

TEST(FftProperty, LinearityOnEveryLane) {
  for (simd::Isa isa : simd::supported_isas()) {
    simd::ScopedIsa forced(isa);
    for (std::size_t n : {8u, 32u, 128u}) {
      const auto x = random_signal(n, 0xAB + n);
      const auto y = random_signal(n, 0xCD + n);
      const Complex a(0.75, -1.5), b(-2.25, 0.5);
      std::vector<Complex> mix(n);
      for (std::size_t i = 0; i < n; ++i) mix[i] = a * x[i] + b * y[i];
      const auto fx = transform(x, false), fy = transform(y, false),
                 fm = transform(mix, false);
      double scale = rms(fm) + 1e-300;
      for (std::size_t i = 0; i < n; ++i) {
        const Complex want = a * fx[i] + b * fy[i];
        EXPECT_NEAR(fm[i].real(), want.real(), 1e-9 * scale);
        EXPECT_NEAR(fm[i].imag(), want.imag(), 1e-9 * scale);
      }
    }
  }
}

TEST(FftProperty, CrossLaneBitExact) {
  // The bit-transparency contract, end to end: the complete transform
  // (bit-reverse + every butterfly stage + inverse scaling) produces
  // identical bits on every lane, up to the imager's sizes (2,048-sample
  // noise gaps, 4,096-point beep transforms).
  const std::vector<simd::Isa> lanes = simd::supported_isas();
  for (std::size_t n :
       {1u, 2u, 4u, 8u, 64u, 256u, 1024u, 2048u, 4096u, 8192u}) {
    const std::vector<Complex> x = random_signal(n, 0xB17 + n);
    std::vector<std::vector<Complex>> specs, backs;
    for (simd::Isa isa : lanes) {
      simd::ScopedIsa forced(isa);
      specs.push_back(transform(x, false));
      backs.push_back(transform(specs.back(), true));
    }
    for (std::size_t l = 1; l < lanes.size(); ++l) {
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(specs[l][i].real()),
                  std::bit_cast<std::uint64_t>(specs[0][i].real()))
            << "fft lane=" << simd::isa_name(lanes[l]) << " n=" << n
            << " i=" << i;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(specs[l][i].imag()),
                  std::bit_cast<std::uint64_t>(specs[0][i].imag()))
            << "fft lane=" << simd::isa_name(lanes[l]) << " n=" << n
            << " i=" << i;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(backs[l][i].real()),
                  std::bit_cast<std::uint64_t>(backs[0][i].real()))
            << "ifft lane=" << simd::isa_name(lanes[l]) << " n=" << n
            << " i=" << i;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(backs[l][i].imag()),
                  std::bit_cast<std::uint64_t>(backs[0][i].imag()))
            << "ifft lane=" << simd::isa_name(lanes[l]) << " n=" << n
            << " i=" << i;
      }
    }
  }
}

// The historical fft_pow2_in_place, kept as the oracle: the in-place
// bit-reversal loop, every stage's butterflies with the twiddle walked by
// repeated multiplication from 1 in each block, then the separate 1/N
// pass of the inverse.
void historical_fft(std::vector<Complex>& x, bool inverse) {
  const std::size_t n = x.size();
  if (n == 1) return;
  std::size_t j = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = (inverse ? 2.0 : -2.0) * std::numbers::pi /
                       static_cast<double>(len);
    const Complex wl(std::cos(ang), std::sin(ang));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex u = x[i + k];
        const Complex v = x[i + k + len / 2] * w;
        x[i + k] = u + v;
        x[i + k + len / 2] = u - v;
        w *= wl;
      }
    }
  }
  if (inverse)
    for (Complex& v : x) v *= 1.0 / static_cast<double>(n);
}

/// `x` copied into n zeros (the callers' historical copy-in), transformed.
std::vector<Complex> historical_padded(const std::vector<Complex>& x,
                                       std::size_t n, bool inverse) {
  std::vector<Complex> out(n, Complex(0.0, 0.0));
  std::copy(x.begin(), x.end(), out.begin());
  historical_fft(out, inverse);
  return out;
}

/// Random values with exact zeros of both signs and a zero tail (the last
/// `zero_tail` entries), as zero-padded and silenced channels carry.
std::vector<Complex> with_zeros(std::size_t n, std::size_t zero_tail,
                                std::uint64_t seed) {
  std::vector<Complex> x = random_signal(n, seed);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 7 == 3) x[i] = Complex(0.0, x[i].imag());
    if (i % 11 == 5) x[i] = Complex(-0.0, -0.0);
    if (i + zero_tail >= n) x[i] = Complex(0.0, 0.0);
  }
  return x;
}

std::vector<double> real_part(const std::vector<Complex>& x) {
  std::vector<double> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i].real();
  return out;
}

void expect_same_bits(const std::vector<Complex>& got,
                      const std::vector<Complex>& want, const char* what,
                      std::size_t n) {
  ASSERT_EQ(got.size(), want.size()) << what << " n=" << n;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i].real()),
              std::bit_cast<std::uint64_t>(want[i].real()))
        << what << " lane=" << simd::isa_name(simd::active_isa())
        << " n=" << n << " i=" << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i].imag()),
              std::bit_cast<std::uint64_t>(want[i].imag()))
        << what << " lane=" << simd::isa_name(simd::active_isa())
        << " n=" << n << " i=" << i;
  }
}

TEST(FftProperty, InPlaceMatchesHistoricalLoopOnEveryLane) {
  for (simd::Isa isa : simd::supported_isas()) {
    simd::ScopedIsa forced(isa);
    for (std::size_t n = 1; n <= 8192; n *= 2) {
      for (const bool inverse : {false, true}) {
        const std::vector<Complex> x =
            with_zeros(n, n / 3, 0x0AC1E + n + (inverse ? 1 : 0));
        std::vector<Complex> want = x;
        historical_fft(want, inverse);
        expect_same_bits(transform(x, inverse), want, "fft_pow2_in_place",
                         n);
      }
    }
  }
}

TEST(FftProperty, BitReversedCopyInMatchesHistoricalLoopOnEveryLane) {
  // fft_pow2_padded and its three callers against the historical copy-in
  // and loop: inputs of one sample, of just over half the size (a long
  // zero-padded tail) and of the full size.
  for (simd::Isa isa : simd::supported_isas()) {
    simd::ScopedIsa forced(isa);
    for (std::size_t n = 1; n <= 8192; n *= 2) {
      for (const std::size_t len : {std::size_t{1}, n / 2 + 1, n}) {
        const std::vector<Complex> x =
            with_zeros(len, len / 4, 0x5EED + n + len);
        const std::vector<double> re = real_part(x);
        std::vector<Complex> re_complex(len);
        for (std::size_t i = 0; i < len; ++i)
          re_complex[i] = Complex(re[i], 0.0);

        expect_same_bits(fft_pow2_padded(x, n),
                         historical_padded(x, n, false), "padded complex", n);
        const std::vector<Complex> spectrum =
            historical_padded(re_complex, n, false);
        expect_same_bits(fft_pow2_padded(re, n), spectrum, "padded real", n);
        expect_same_bits(template_spectrum(re, n), spectrum,
                         "template_spectrum", n);

        // The matched filter of x against a template spectrum of this size.
        std::vector<Complex> want = historical_padded(x, n, false);
        for (std::size_t i = 0; i < n; ++i) want[i] *= std::conj(spectrum[i]);
        historical_fft(want, true);
        want.resize(len);
        expect_same_bits(matched_filter_complex(x, spectrum), want,
                         "matched_filter_complex", n);

        // The analytic signal of a real input that pads to n.
        if (len == 1 && n > 1) continue;
        std::vector<Complex> analytic = historical_padded(re_complex, n, false);
        for (std::size_t k = 1; k < n / 2; ++k) analytic[k] *= 2.0;
        for (std::size_t k = n / 2 + 1; k < n; ++k)
          analytic[k] = Complex(0.0, 0.0);
        historical_fft(analytic, true);
        analytic.resize(len);
        expect_same_bits(analytic_signal(re), analytic, "analytic_signal", n);
      }
    }
  }
}

TEST(FftProperty, Pow2KernelRejectsNonPow2Cleanly) {
  for (std::size_t n : {0u, 3u, 5u, 6u, 7u, 12u, 100u}) {
    std::vector<Complex> x = random_signal(n, 0xE44 + n);
    const std::vector<Complex> before = x;
    EXPECT_THROW(fft_pow2_in_place(x, false), std::invalid_argument) << n;
    EXPECT_THROW(fft_pow2_in_place(x, true), std::invalid_argument) << n;
    // A rejected call must not have touched the data.
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(x[i].real()),
                std::bit_cast<std::uint64_t>(before[i].real()));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(x[i].imag()),
                std::bit_cast<std::uint64_t>(before[i].imag()));
    }
  }
  EXPECT_THROW(simd::FftPlan bad(12), std::invalid_argument);
}

TEST(FftProperty, PlanCacheReturnsStableInstances) {
  const simd::FftPlan& p64 = simd::FftPlan::for_size(64);
  EXPECT_EQ(p64.size(), 64u);
  EXPECT_EQ(&p64, &simd::FftPlan::for_size(64));
  EXPECT_NE(&p64, &simd::FftPlan::for_size(128));
}

TEST(FftFuzz, RandomSizesAndMagnitudes) {
  // serialize_fuzz_test-style sweep: one master seed drives random lengths
  // (1..600, pow2 and not, zero-padded to the next power of two) and
  // wide-decade magnitudes; every case must round-trip and satisfy
  // Parseval on the active lane, and the forced scalar lane must agree bit
  // for bit.
  std::mt19937_64 master(20260809);
  std::uniform_int_distribution<std::size_t> size_dist(1, 600);
  for (int iter = 0; iter < 40; ++iter) {
    const std::size_t n = next_pow2(size_dist(master));
    const std::uint64_t seed = master();
    check_round_trip_and_parseval(n, seed);
    std::vector<Complex> x = random_signal(size_dist(master), seed, 6.0);
    x.resize(next_pow2(x.size()), Complex(0.0, 0.0));
    const std::vector<Complex> fast = transform(x, false);
    simd::ScopedIsa forced(simd::Isa::kScalar);
    const std::vector<Complex> slow = transform(x, false);
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(fast[i].real()),
                std::bit_cast<std::uint64_t>(slow[i].real()))
          << "n=" << n << " iter=" << iter << " i=" << i;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(fast[i].imag()),
                std::bit_cast<std::uint64_t>(slow[i].imag()))
          << "n=" << n << " iter=" << iter << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace echoimage::dsp
