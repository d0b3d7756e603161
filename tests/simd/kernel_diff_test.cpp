// Differential harness for the vectorized DSP kernels.
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

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <random>
#include <utility>
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

TEST(KernelDiff, FftMatchesScalarBitwise) {
  // The whole-transform entry at every power of two from 2 to 8192, both
  // with and without the 1/N pass: the AVX2 lane's fused stage pairs, its
  // odd last stage (n = 8, 32, ...) and its n = 2 and 4 special cases.
  // Random twiddles (complex 0 of the table is unused padding) keep any
  // stage from hiding behind a trivial factor.
  const KernelTable& ref = kernels_for(Isa::kScalar);
  for (Isa isa : vector_lanes()) {
    const KernelTable& vec = kernels_for(isa);
    std::mt19937_64 gen(0xC0FFEE04 + static_cast<unsigned>(isa));
    for (std::size_t n = 2; n <= 8192; n *= 2) {
      MisalignedComplex tw(n, gen);
      for (const bool normalize : {false, true}) {
        MisalignedComplex x(n, gen);
        std::vector<double> x_ref(x.raw);
        ref.fft_f64(x_ref.data() + 1, reinterpret_cast<const double*>(tw.data),
                    n, normalize);
        vec.fft_f64(x.raw.data() + 1, reinterpret_cast<const double*>(tw.data),
                    n, normalize);
        SCOPED_TRACE(::testing::Message() << "n " << n << " normalize "
                                          << normalize);
        expect_bits_equal(x.raw.data(), x_ref.data(), x.raw.size(), "fft",
                          isa);
      }
    }
  }
}

TEST(KernelDiff, SosSectionMatchesScalarBitwise) {
  // Widths 1-8 take the AVX2 lane's register-state path (chunks of 4, 2
  // and 1 channels), 13 the memory-state loop; up to 2,928 frames, a
  // 2,880-sample beep with filtfilt's edge padding.
  const KernelTable& ref = kernels_for(Isa::kScalar);
  for (Isa isa : vector_lanes()) {
    const KernelTable& vec = kernels_for(isa);
    std::mt19937_64 gen(0xC0FFEE05 + static_cast<unsigned>(isa));
    std::uniform_real_distribution<double> coeff(-0.9, 0.9);
    for (std::size_t width : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 13u}) {
      for (std::size_t frames : {0u, 1u, 3u, 17u, 64u, 2928u}) {
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
        SCOPED_TRACE(::testing::Message() << "width " << width << " frames "
                                          << frames);
        expect_bits_equal(x.data(), x_ref.data(), x.size(), "sos_x", isa);
        expect_bits_equal(z1.data(), z1_ref.data(), width, "sos_z1", isa);
        expect_bits_equal(z2.data(), z2_ref.data(), width, "sos_z2", isa);
      }
    }
  }
}

TEST(KernelDiff, GateSumsMatchScalarBitwise) {
  // The widths of an M' = 2..6 product table, bare and padded to whole
  // registers, and widths of no register multiple; empty and reversed
  // row ranges read zeros.
  const KernelTable& ref = kernels_for(Isa::kScalar);
  for (Isa isa : vector_lanes()) {
    const KernelTable& vec = kernels_for(isa);
    std::mt19937_64 gen(0xC0FFEE06 + static_cast<unsigned>(isa));
    for (std::size_t width : {1u, 3u, 5u, 6u, 7u, 8u, 12u, 13u, 20u, 30u, 32u,
                              42u, 44u, 50u, 100u}) {
      const std::size_t rows = 40;
      std::vector<double> table(rows * width + 1);
      for (double& v : table) v = wild_double(gen);
      for (const auto& [first, last] :
           {std::pair<std::size_t, std::size_t>{0, rows}, {3, 4}, {5, 22},
            {17, 17}, {30, 12}, {39, 40}}) {
        std::vector<double> got(width, -1.0), want(width, -2.0);
        ref.gate_sums_f64(table.data() + 1, width, first, last, want.data());
        vec.gate_sums_f64(table.data() + 1, width, first, last, got.data());
        expect_bits_equal(got.data(), want.data(), width, "gate_sums", isa);
      }
    }
  }
}

/// Unit-modulus complex entries (re, im) at seeded random phases.
std::vector<double> unit_phasors(std::size_t n, std::mt19937_64& gen) {
  std::uniform_real_distribution<double> phase(-3.2, 3.2);
  std::vector<double> out(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = phase(gen);
    out[2 * i] = std::cos(a);
    out[2 * i + 1] = std::sin(a);
  }
  return out;
}

TEST(KernelDiff, ClosedFormRowMatchesScalarBitwise) {
  // Every combination of M' = 2..6 (and 9, past the AVX2 lane's register
  // budget), rows of 1, 3, 5 and 17 pixels (whole blocks of four plus
  // tails), 1 and 5 bands, 1-4 beeps, MVDR and delay-and-sum, and mix 0,
  // 0.85 and 1. Gates are drawn per pixel (gate 0 is an empty gate's zero
  // form), and one row shares one gate.
  const KernelTable& ref = kernels_for(Isa::kScalar);
  for (Isa isa : vector_lanes()) {
    const KernelTable& vec = kernels_for(isa);
    std::mt19937_64 gen(0xC0FFEE07 + static_cast<unsigned>(isa));
    std::normal_distribution<double> normal(0.0, 1.0);
    for (std::size_t m : {2u, 3u, 4u, 5u, 6u, 9u}) {
      const std::size_t form_size = 1 + m * (m - 1);
      const std::size_t num_gates = 7;
      for (std::size_t pixels : {1u, 3u, 5u, 17u}) {
        for (std::size_t bands : {1u, 5u}) {
          for (std::size_t beeps : {1u, 2u, 3u, 4u}) {
            const std::size_t slots = beeps * bands;
            const std::vector<double> base = unit_phasors(pixels * m, gen);
            const std::vector<double> step = unit_phasors(pixels * m, gen);
            std::vector<std::uint32_t> gate(pixels);
            const bool shared = pixels == 17 && beeps == 2;
            for (std::uint32_t& g : gate)
              g = shared ? 3u : static_cast<std::uint32_t>(gen() % num_gates);
            std::vector<std::vector<double>> inverses(bands),
                forms(slots), incoherent(slots);
            std::vector<const double*> inverse, form, inc;
            for (std::vector<double>& f : inverses) {
              f.resize(form_size);
              for (double& v : f) v = 0.1 * normal(gen);
              f[0] = 5.0 + std::abs(normal(gen));
              inverse.push_back(f.data());
            }
            for (std::size_t slot = 0; slot < slots; ++slot) {
              forms[slot].resize(num_gates * form_size);
              for (double& v : forms[slot]) v = normal(gen);
              incoherent[slot].resize(num_gates);
              for (double& v : incoherent[slot]) v = std::abs(normal(gen));
              // Gate 0 is empty: a zero form and no incoherent energy.
              std::fill(forms[slot].begin(),
                        forms[slot].begin() +
                            static_cast<std::ptrdiff_t>(form_size),
                        0.0);
              incoherent[slot][0] = 0.0;
              form.push_back(forms[slot].data());
              inc.push_back(incoherent[slot].data());
            }
            for (const bool mvdr : {true, false}) {
              for (const double mix : {0.0, 0.85, 1.0}) {
                std::vector<double> got(slots * pixels), want;
                for (double& v : got) v = std::abs(normal(gen));
                want = got;
                std::vector<double*> got_out, want_out;
                for (std::size_t slot = 0; slot < slots; ++slot) {
                  got_out.push_back(got.data() + slot * pixels);
                  want_out.push_back(want.data() + slot * pixels);
                }
                SweepRow row;
                row.pixels = pixels;
                row.mics = m;
                row.bands = bands;
                row.beeps = beeps;
                row.base = base.data();
                row.step = step.data();
                row.gate = gate.data();
                row.inverse = mvdr ? inverse.data() : nullptr;
                row.forms = form.data();
                row.incoherent = inc.data();
                row.mix = mix;
                row.out = want_out.data();
                ref.closed_form_row_f64(row);
                row.out = got_out.data();
                vec.closed_form_row_f64(row);
                SCOPED_TRACE(::testing::Message()
                             << "mics " << m << " pixels " << pixels
                             << " bands " << bands << " beeps " << beeps
                             << " mvdr " << mvdr << " mix " << mix);
                expect_bits_equal(got.data(), want.data(), got.size(),
                                  "closed_form_row", isa);
              }
            }
          }
        }
      }
    }
  }
}

TEST(KernelDiff, Conv3x3RowMatchesScalarBitwise) {
  // in x out over {1, 3, 8} x {1, 3, 5, 8, 32, 37}: whole registers,
  // masked channel tails and more channels than one register block, on
  // maps of one pixel and of 5 x 7, with exact zeros (both signs) and
  // denormals among the inputs.
  const KernelTable& ref = kernels_for(Isa::kScalar);
  for (Isa isa : vector_lanes()) {
    const KernelTable& vec = kernels_for(isa);
    std::mt19937_64 gen(0xC0FFEE08 + static_cast<unsigned>(isa));
    std::normal_distribution<double> normal(0.0, 1.0);
    for (std::size_t in : {1u, 3u, 8u}) {
      for (std::size_t out : {1u, 3u, 5u, 8u, 32u, 37u}) {
        for (const auto& [h, w] : {std::pair<std::size_t, std::size_t>{1, 1},
                                   {5, 7}}) {
          std::vector<double> input(h * w * in + 1), weights(9 * in * out + 1),
              bias(out + 1);
          for (double& v : input) {
            switch (gen() % 8) {
              case 0: v = 0.0; break;
              case 1: v = -0.0; break;
              case 2: v = 4.9406564584124654e-324; break;
              default: v = normal(gen); break;
            }
          }
          for (double& v : weights) v = normal(gen);
          for (double& v : bias) v = normal(gen);
          const Conv3x3 conv{input.data() + 1, h,   w, in, out,
                             weights.data() + 1, bias.data() + 1};
          for (std::size_t oy = 0; oy < h; ++oy) {
            std::vector<double> got(w * out + 1, -1.0),
                want(w * out + 1, -2.0);
            ref.conv3x3_row_f64(conv, oy, want.data() + 1);
            vec.conv3x3_row_f64(conv, oy, got.data() + 1);
            SCOPED_TRACE(::testing::Message() << "in " << in << " out " << out
                                              << " map " << h << "x" << w
                                              << " row " << oy);
            expect_bits_equal(got.data() + 1, want.data() + 1, w * out,
                              "conv3x3_row", isa);
          }
        }
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
  EXPECT_EQ(parse_isa("auto"), best_isa());
  EXPECT_THROW((void)parse_isa("avx512"), std::invalid_argument);
  EXPECT_THROW((void)parse_isa("neon"), std::invalid_argument);
  EXPECT_THROW((void)parse_isa(""), std::invalid_argument);
  EXPECT_TRUE(isa_supported(Isa::kScalar));
  const std::vector<Isa> lanes = supported_isas();
  ASSERT_FALSE(lanes.empty());
  EXPECT_EQ(lanes.front(), Isa::kScalar);
  for (Isa isa : lanes) EXPECT_EQ(kernels_for(isa).isa, isa);
#if defined(__x86_64__)
  EXPECT_TRUE(isa_supported(Isa::kSse2));
#else
  EXPECT_EQ(lanes.size(), 1u);
#endif
}

}  // namespace
}  // namespace echoimage::simd
