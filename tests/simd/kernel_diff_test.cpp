// Differential harness for the vectorized DSP kernels (ISSUE 10).
//
// Every kernel in simd::KernelTable is property-tested against the scalar
// reference lane on every ISA lane this build + machine supports:
//   * randomized seeded inputs with mixed magnitudes, denormals and ±0,
//   * sizes that are not multiples of any vector width (1, 3, 5, 7, ...),
//   * misaligned operands (complex data on an 8-byte-odd boundary, so no
//     128/256-bit load is ever naturally aligned),
//   * bit-exact comparison: the bit-transparency contract says a lane
//     switch may never change a single output bit.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <random>
#include <vector>

#include "simd/isa.hpp"
#include "simd/kernels.hpp"

namespace echoimage::simd {
namespace {

using Complex = std::complex<double>;

std::vector<Isa> vector_lanes() {
  std::vector<Isa> lanes;
  for (Isa isa : supported_isas())
    if (isa != Isa::kScalar) lanes.push_back(isa);
  return lanes;
}

/// Mixed-magnitude random double: mantissa in [-1, 1], decade in
/// [1e-9, 1e9], with seeded sprinkles of ±0 and denormals.
double wild_double(std::mt19937_64& gen) {
  std::uniform_real_distribution<double> mant(-1.0, 1.0);
  std::uniform_real_distribution<double> dec(-9.0, 9.0);
  switch (gen() % 16) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:
      return 4.9406564584124654e-324;  // smallest denormal
    case 3:
      return -2.2250738585072014e-308 * mant(gen);  // denormal range
    default:
      return mant(gen) * std::pow(10.0, dec(gen));
  }
}

/// Raw buffer of doubles with an odd-double lead-in so the complex view is
/// never 16-byte aligned (exercises the unaligned load paths).
struct MisalignedComplex {
  std::vector<double> raw;
  Complex* data;
  explicit MisalignedComplex(std::size_t n, std::mt19937_64& gen)
      : raw(2 * n + 1) {
    for (double& v : raw) v = wild_double(gen);
    data = reinterpret_cast<Complex*>(raw.data() + 1);
  }
};

void expect_bits_equal(const double* a, const double* b, std::size_t n,
                       const char* what, Isa isa) {
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << what << " lane=" << isa_name(isa) << " index " << i << ": "
        << a[i] << " vs " << b[i];
  }
}

const std::size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33,
                              64, 100, 127, 128};

TEST(KernelDiff, ComplexConjMulMatchesScalarBitwise) {
  const KernelTable& ref = kernels_for(Isa::kScalar);
  for (Isa isa : vector_lanes()) {
    const KernelTable& vec = kernels_for(isa);
    std::mt19937_64 gen(0xC0FFEE02 + static_cast<unsigned>(isa));
    for (std::size_t n : kSizes) {
      MisalignedComplex a(n, gen), b(n, gen);
      std::vector<double> a_ref(a.raw);
      auto* ra = reinterpret_cast<Complex*>(a_ref.data() + 1);
      ref.complex_conj_mul_f64(ra, b.data, n);
      vec.complex_conj_mul_f64(a.data, b.data, n);
      expect_bits_equal(a.raw.data(), a_ref.data(), a.raw.size(),
                        "complex_conj_mul", isa);
    }
  }
}

TEST(KernelDiff, ComplexScaleAndScaleMatchScalarBitwise) {
  const KernelTable& ref = kernels_for(Isa::kScalar);
  for (Isa isa : vector_lanes()) {
    const KernelTable& vec = kernels_for(isa);
    std::mt19937_64 gen(0xC0FFEE03 + static_cast<unsigned>(isa));
    for (std::size_t n : kSizes) {
      MisalignedComplex a(n, gen);
      std::vector<double> a_ref(a.raw);
      const double s = wild_double(gen);
      ref.complex_scale_f64(reinterpret_cast<Complex*>(a_ref.data() + 1), n,
                            s);
      vec.complex_scale_f64(a.data, n, s);
      expect_bits_equal(a.raw.data(), a_ref.data(), a.raw.size(),
                        "complex_scale", isa);

      std::vector<double> x(2 * n + 1);
      for (double& v : x) v = wild_double(gen);
      std::vector<double> x_ref(x);
      const double g = wild_double(gen);
      ref.scale_f64(x_ref.data() + 1, x.size() - 1, g);
      vec.scale_f64(x.data() + 1, x.size() - 1, g);
      expect_bits_equal(x.data(), x_ref.data(), x.size(), "scale", isa);
    }
  }
}

TEST(KernelDiff, FftStageMatchesScalarBitwise) {
  const KernelTable& ref = kernels_for(Isa::kScalar);
  for (Isa isa : vector_lanes()) {
    const KernelTable& vec = kernels_for(isa);
    std::mt19937_64 gen(0xC0FFEE04 + static_cast<unsigned>(isa));
    for (std::size_t n : {2u, 4u, 8u, 16u, 32u, 64u, 256u}) {
      for (std::size_t len = 2; len <= n; len <<= 1) {
        MisalignedComplex x(n, gen);
        MisalignedComplex tw(len / 2, gen);
        std::vector<double> x_ref(x.raw);
        ref.fft_stage_f64(x_ref.data() + 1,
                          reinterpret_cast<const double*>(tw.data), n, len);
        vec.fft_stage_f64(x.raw.data() + 1,
                          reinterpret_cast<const double*>(tw.data), n, len);
        expect_bits_equal(x.raw.data(), x_ref.data(), x.raw.size(),
                          "fft_stage", isa);
      }
    }
  }
}

TEST(KernelDiff, SosSectionMatchesScalarBitwise) {
  const KernelTable& ref = kernels_for(Isa::kScalar);
  for (Isa isa : vector_lanes()) {
    const KernelTable& vec = kernels_for(isa);
    std::mt19937_64 gen(0xC0FFEE05 + static_cast<unsigned>(isa));
    std::uniform_real_distribution<double> coeff(-0.9, 0.9);
    for (std::size_t width : {1u, 2u, 3u, 4u, 5u, 6u, 8u, 13u}) {
      for (std::size_t frames : {0u, 1u, 3u, 17u, 64u}) {
        SosCoeffs c{coeff(gen), coeff(gen), coeff(gen), coeff(gen),
                    coeff(gen)};
        std::vector<double> x(frames * width + 1);
        for (double& v : x) v = wild_double(gen);
        std::vector<double> z1(width), z2(width);
        for (double& v : z1) v = wild_double(gen);
        for (double& v : z2) v = wild_double(gen);
        std::vector<double> x_ref(x), z1_ref(z1), z2_ref(z2);
        ref.sos_section_f64(x_ref.data() + 1, frames, width, c,
                            z1_ref.data(), z2_ref.data());
        vec.sos_section_f64(x.data() + 1, frames, width, c, z1.data(),
                            z2.data());
        expect_bits_equal(x.data(), x_ref.data(), x.size(), "sos_x", isa);
        expect_bits_equal(z1.data(), z1_ref.data(), width, "sos_z1", isa);
        expect_bits_equal(z2.data(), z2_ref.data(), width, "sos_z2", isa);
      }
    }
  }
}

TEST(KernelDiff, ScopedIsaForcesAndRestores) {
  const Isa before = active_isa();
  {
    ScopedIsa forced(Isa::kScalar);
    EXPECT_EQ(active_isa(), Isa::kScalar);
    EXPECT_EQ(kernels().isa, Isa::kScalar);
    {
      ScopedIsa nested(best_isa());
      EXPECT_EQ(active_isa(), best_isa());
    }
    EXPECT_EQ(active_isa(), Isa::kScalar);
  }
  EXPECT_EQ(active_isa(), before);
}

TEST(KernelDiff, IsaParsingAndSupport) {
  EXPECT_EQ(parse_isa("scalar"), Isa::kScalar);
  EXPECT_EQ(parse_isa("sse2"), Isa::kSse2);
  EXPECT_EQ(parse_isa("avx2"), Isa::kAvx2);
  EXPECT_EQ(parse_isa("neon"), Isa::kNeon);
  EXPECT_EQ(parse_isa("auto"), best_isa());
  EXPECT_THROW((void)parse_isa("avx512"), std::invalid_argument);
  EXPECT_THROW((void)parse_isa(""), std::invalid_argument);
  EXPECT_TRUE(isa_supported(Isa::kScalar));
  const std::vector<Isa> lanes = supported_isas();
  ASSERT_FALSE(lanes.empty());
  EXPECT_EQ(lanes.front(), Isa::kScalar);
  for (Isa isa : lanes) EXPECT_EQ(kernels_for(isa).isa, isa);
#if defined(__x86_64__)
  EXPECT_TRUE(isa_supported(Isa::kSse2));
  EXPECT_FALSE(isa_supported(Isa::kNeon));
  EXPECT_THROW((void)kernels_for(Isa::kNeon), std::invalid_argument);
#endif
}

}  // namespace
}  // namespace echoimage::simd
