// FFT property + fuzz tests over every power-of-two size from 1 to 1024.
//
// Properties checked on every supported ISA lane:
//   * round-trip: inverse(forward(x)) == x to tight relative tolerance,
//   * Parseval: sum |x|^2 == (1/N) sum |X|^2,
//   * linearity spot check: fft(a x + b y) == a fft(x) + b fft(y),
//   * the in-place kernel rejects non-power-of-two sizes with a clean
//     std::invalid_argument instead of corrupting memory,
//   * cross-lane bit-exactness: the full transform (not just one stage)
//     produces identical bits on every lane,
// plus a seeded fuzz sweep in the style of serialize_fuzz_test: random
// lengths (zero-padded to the next power of two, as callers do), random
// magnitudes spanning many decades.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include "dsp/fft.hpp"
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
  // identical bits on every lane.
  const std::vector<simd::Isa> lanes = simd::supported_isas();
  for (std::size_t n : {1u, 2u, 4u, 8u, 64u, 256u, 1024u}) {
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
