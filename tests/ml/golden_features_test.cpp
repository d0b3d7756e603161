// Golden CNN features: every feature of two fixed images through the
// default extractor and through a two-block {3, 5} extractor, pinned as
// hexfloats, on every ISA lane. The {3, 5} network has output-channel
// counts that are no multiple of any vector width; the first image has
// exact zeros, which the convolution skips.
//
// Regenerate (after an INTENDED numerical change) with:
//   ECHOIMAGE_REGEN_GOLDEN=1 ./echoimage_tests
//       --gtest_filter='GoldenFeatures.*'
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "ml/cnn.hpp"
#include "simd/isa.hpp"

#ifndef ECHOIMAGE_TEST_DATA_DIR
#error "ECHOIMAGE_TEST_DATA_DIR must be defined by the build"
#endif

namespace echoimage::ml {
namespace {

std::string golden_path() {
  return std::string(ECHOIMAGE_TEST_DATA_DIR) + "/golden_features.txt";
}

/// A 60x60 smooth non-negative image whose left ten columns and a central
/// square are exactly zero (resized to 48x48 by the extractor), and a
/// 48x48 seeded random image with one pixel in eight exactly zero.
std::vector<Matrix2D> images() {
  Matrix2D smooth(60, 60);
  for (std::size_t r = 0; r < 60; ++r) {
    for (std::size_t c = 10; c < 60; ++c) {
      const bool hole = r >= 25 && r < 35 && c >= 25 && c < 35;
      smooth(r, c) =
          hole ? 0.0
               : 1.5 + std::sin(0.21 * static_cast<double>(r)) *
                           std::cos(0.13 * static_cast<double>(c));
    }
  }
  Matrix2D noisy(48, 48);
  std::mt19937_64 gen(0x5EEDF00D);
  std::uniform_real_distribution<double> value(0.0, 2.0);
  for (double& v : noisy.data()) v = gen() % 8 == 0 ? 0.0 : value(gen);
  return {smooth, noisy};
}

std::string render_features() {
  VggishFeatureExtractor::Config narrow;
  narrow.block_channels = {3, 5};
  struct Case {
    const char* name;
    VggishFeatureExtractor extractor;
  };
  const Case cases[] = {{"default", VggishFeatureExtractor{}},
                        {"blocks=3,5", VggishFeatureExtractor{narrow}}};
  const std::vector<Matrix2D> inputs = images();
  std::ostringstream out;
  out << std::hexfloat;
  for (const Case& c : cases) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const std::vector<double> features = c.extractor.extract(inputs[i]);
      out << c.name << " image=" << i << " n=" << features.size();
      for (const double v : features) out << ' ' << v;
      out << '\n';
    }
  }
  return out.str();
}

TEST(GoldenFeatures, MatchThePinnedTranscriptOnEveryLane) {
  if (std::getenv("ECHOIMAGE_REGEN_GOLDEN") != nullptr) {
    echoimage::simd::ScopedIsa forced(echoimage::simd::Isa::kScalar);
    std::ofstream out(golden_path(), std::ios::binary);
    out << render_features();
    GTEST_SKIP() << "regenerated " << golden_path();
  }
  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path()
                         << " — run with ECHOIMAGE_REGEN_GOLDEN=1";
  std::stringstream expected;
  expected << in.rdbuf();
  for (const echoimage::simd::Isa isa : echoimage::simd::supported_isas()) {
    echoimage::simd::ScopedIsa forced(isa);
    EXPECT_EQ(render_features(), expected.str())
        << "lane " << echoimage::simd::isa_name(isa);
  }
}

}  // namespace
}  // namespace echoimage::ml
