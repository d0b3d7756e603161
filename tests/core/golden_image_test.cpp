// Golden-image regression: a fixed capture must reproduce the committed
// reference image to within 1e-12. Catches any accidental numerical change
// to the imaging chain — filtering, beamforming, gating, or the parallel
// decomposition. A second golden pins the gate branches the default scene
// never takes: echo-anchored raw (uncompressed) gates, some clipped at the
// end of the capture and some starting past it. Two more pin, bit for bit,
// the weight paths the default scene never takes: MVDR on a degraded
// subarray (channels 1 and 4 masked out) and delay-and-sum weights.
//
// Regenerate (after an INTENDED numerical change, with the serial path):
//   ECHOIMAGE_REGEN_GOLDEN=1 ./echoimage_tests --gtest_filter='GoldenImage.*'
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/imaging.hpp"
#include "eval/dataset.hpp"
#include "eval/image_io.hpp"
#include "eval/roster.hpp"
#include "simd/isa.hpp"

#ifndef ECHOIMAGE_TEST_DATA_DIR
#error "ECHOIMAGE_TEST_DATA_DIR must be defined by the build"
#endif

namespace echoimage::core {
namespace {

ImagingConfig golden_config() {
  ImagingConfig cfg;
  cfg.grid_size = 16;
  cfg.grid_spacing_m = 0.045;
  cfg.num_subbands = 2;
  cfg.num_threads = 1;  // the golden file is defined by the serial path
  return cfg;
}

// Echo-anchored, uncompressed gates on a 3 m wide plane, with the echo
// anchored 54 ms into the 60 ms capture: central grids gate inside the
// capture, outer grids are clipped at its end, the corners start past it.
constexpr double kClippedTauEcho = 0.054;

ImagingConfig clipped_gates_config() {
  ImagingConfig cfg = golden_config();
  cfg.grid_spacing_m = 0.2;
  cfg.anchor_to_echo = true;
  cfg.pulse_compression = false;
  return cfg;
}

std::vector<Matrix2D> render_golden_scene(
    const ImagingConfig& cfg, double tau_echo_s = -1.0,
    const echoimage::array::ChannelMask& active_mask = {}) {
  const auto geometry = echoimage::array::make_respeaker_array();
  const auto users =
      echoimage::eval::make_users(echoimage::eval::make_roster(), 7);
  const echoimage::eval::DataCollector collector(
      echoimage::sim::CaptureConfig{}, geometry, 7);
  echoimage::eval::CollectionConditions cond;
  const auto batch = collector.collect(users[0], cond, 1);
  return AcousticImager(cfg, geometry)
      .construct_bands(batch.beeps[0], echoimage::units::Meters{0.7}, 0.0002,
                       batch.noise_only, tau_echo_s, active_mask);
}

std::string golden_path(std::size_t band, const std::string& stem =
                                              "golden_image_band") {
  return std::string(ECHOIMAGE_TEST_DATA_DIR) + "/" + stem +
         std::to_string(band) + ".eimat";
}

TEST(GoldenImage, MatchesCommittedReferenceWithin1em12) {
  const std::vector<Matrix2D> bands = render_golden_scene(golden_config());
  ASSERT_EQ(bands.size(), 2u);
  if (std::getenv("ECHOIMAGE_REGEN_GOLDEN") != nullptr) {
    for (std::size_t b = 0; b < bands.size(); ++b)
      echoimage::eval::write_matrix_file(golden_path(b), bands[b]);
    GTEST_SKIP() << "regenerated golden files in " << ECHOIMAGE_TEST_DATA_DIR;
  }
  for (std::size_t b = 0; b < bands.size(); ++b) {
    const Matrix2D golden = echoimage::eval::read_matrix_file(golden_path(b));
    ASSERT_EQ(golden.rows(), bands[b].rows());
    ASSERT_EQ(golden.cols(), bands[b].cols());
    double max_diff = 0.0;
    for (std::size_t i = 0; i < golden.size(); ++i)
      max_diff = std::max(
          max_diff, std::abs(golden.data()[i] - bands[b].data()[i]));
    EXPECT_LE(max_diff, 1e-12)
        << "band " << b << " drifted from the golden image";
  }
}

TEST(GoldenImage, ParallelCachedEngineMatchesTheGoldenToo) {
  // The threaded engine is held to the same reference: its determinism
  // guarantee means it cannot drift from the serial golden.
  if (std::getenv("ECHOIMAGE_REGEN_GOLDEN") != nullptr)
    GTEST_SKIP() << "regeneration uses the serial path only";
  ImagingConfig cfg = golden_config();
  cfg.num_threads = 4;
  const std::vector<Matrix2D> bands = render_golden_scene(cfg);
  for (std::size_t b = 0; b < bands.size(); ++b) {
    const Matrix2D golden = echoimage::eval::read_matrix_file(golden_path(b));
    double max_diff = 0.0;
    for (std::size_t i = 0; i < golden.size(); ++i)
      max_diff = std::max(
          max_diff, std::abs(golden.data()[i] - bands[b].data()[i]));
    EXPECT_LE(max_diff, 1e-12) << "band " << b;
  }
}

TEST(GoldenImage, BitExactAcrossIsaLanesAndThreadCounts) {
  // The SIMD bit-transparency contract (DESIGN.md, "SIMD model"): every
  // supported ISA lane, at every thread count, reproduces
  // the serial scalar image bit for bit — not merely within tolerance.
  // This is the test that keeps the committed goldens lane-independent.
  if (std::getenv("ECHOIMAGE_REGEN_GOLDEN") != nullptr)
    GTEST_SKIP() << "regeneration uses the serial path only";
  std::vector<Matrix2D> reference;
  {
    echoimage::simd::ScopedIsa forced(echoimage::simd::Isa::kScalar);
    reference = render_golden_scene(golden_config());
  }
  for (echoimage::simd::Isa isa : echoimage::simd::supported_isas()) {
    echoimage::simd::ScopedIsa forced(isa);
    for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      ImagingConfig cfg = golden_config();
      cfg.num_threads = threads;
      const std::vector<Matrix2D> bands = render_golden_scene(cfg);
      ASSERT_EQ(bands.size(), reference.size());
      for (std::size_t b = 0; b < bands.size(); ++b) {
        ASSERT_EQ(bands[b].size(), reference[b].size());
        for (std::size_t i = 0; i < bands[b].size(); ++i) {
          ASSERT_EQ(bands[b].data()[i], reference[b].data()[i])
              << "lane " << echoimage::simd::isa_name(isa) << " threads "
              << threads << " band " << b << " pixel " << i
              << " differs from the scalar serial image";
        }
      }
    }
  }
}

TEST(GoldenImage, ClippedAnchoredRawGatesBitExactToCommittedReference) {
  const std::string stem = "golden_image_clipped_band";
  const ImagingConfig cfg = clipped_gates_config();
  if (std::getenv("ECHOIMAGE_REGEN_GOLDEN") != nullptr) {
    const std::vector<Matrix2D> bands =
        render_golden_scene(cfg, kClippedTauEcho);
    for (std::size_t b = 0; b < bands.size(); ++b)
      echoimage::eval::write_matrix_file(golden_path(b, stem), bands[b]);
    GTEST_SKIP() << "regenerated clipped-gate golden files";
  }
  std::vector<Matrix2D> golden;
  for (std::size_t b = 0; b < cfg.num_subbands; ++b)
    golden.push_back(echoimage::eval::read_matrix_file(golden_path(b, stem)));

  // The scene really takes the three gate branches: [t0, t1] inside the
  // 60 ms capture, straddling its end, and starting past it (those pixels
  // integrate nothing and are exactly zero).
  const double capture_end = echoimage::sim::CaptureConfig{}.frame.value();
  std::size_t inside = 0, straddling = 0, past = 0;
  for (std::size_t r = 0; r < cfg.grid_size; ++r) {
    for (std::size_t c = 0; c < cfg.grid_size; ++c) {
      const double dk =
          grid_distance(cfg, r, c, echoimage::units::Meters{0.7}).value();
      const double onset = kClippedTauEcho +
                           2.0 * (dk - 0.7) / cfg.speed_of_sound.value();
      const double t0 = onset - cfg.gate_halfwidth_s;
      const double t1 =
          onset + cfg.gate_halfwidth_s + cfg.chirp.duration.value();
      if (t1 < capture_end) {
        ++inside;
      } else if (t0 < capture_end) {
        ++straddling;
      } else {
        ++past;
        for (const Matrix2D& band : golden)
          EXPECT_EQ(band(r, c), 0.0) << "grid " << r << "," << c;
      }
    }
  }
  EXPECT_GT(inside, 0u);
  EXPECT_GT(straddling, 0u);
  EXPECT_GT(past, 0u);

  for (echoimage::simd::Isa isa : echoimage::simd::supported_isas()) {
    echoimage::simd::ScopedIsa forced(isa);
    for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      ImagingConfig lane_cfg = cfg;
      lane_cfg.num_threads = threads;
      const std::vector<Matrix2D> bands =
          render_golden_scene(lane_cfg, kClippedTauEcho);
      ASSERT_EQ(bands.size(), golden.size());
      for (std::size_t b = 0; b < bands.size(); ++b) {
        ASSERT_EQ(bands[b].size(), golden[b].size());
        for (std::size_t i = 0; i < bands[b].size(); ++i) {
          ASSERT_EQ(bands[b].data()[i], golden[b].data()[i])
              << "lane " << echoimage::simd::isa_name(isa) << " threads "
              << threads << " band " << b << " pixel " << i;
        }
      }
    }
  }
}

// Regenerates the `stem` golden pair from the serial path under
// ECHOIMAGE_REGEN_GOLDEN; otherwise every supported lane, serial and
// threaded, must reproduce it bit for bit.
void expect_bit_exact_golden(const std::string& stem, const ImagingConfig& cfg,
                             const echoimage::array::ChannelMask& active_mask) {
  if (std::getenv("ECHOIMAGE_REGEN_GOLDEN") != nullptr) {
    const std::vector<Matrix2D> bands =
        render_golden_scene(cfg, -1.0, active_mask);
    for (std::size_t b = 0; b < bands.size(); ++b)
      echoimage::eval::write_matrix_file(golden_path(b, stem), bands[b]);
    GTEST_SKIP() << "regenerated " << stem << " golden files";
  }
  std::vector<Matrix2D> golden;
  for (std::size_t b = 0; b < cfg.num_subbands; ++b)
    golden.push_back(echoimage::eval::read_matrix_file(golden_path(b, stem)));
  for (echoimage::simd::Isa isa : echoimage::simd::supported_isas()) {
    echoimage::simd::ScopedIsa forced(isa);
    for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      ImagingConfig lane_cfg = cfg;
      lane_cfg.num_threads = threads;
      const std::vector<Matrix2D> bands =
          render_golden_scene(lane_cfg, -1.0, active_mask);
      ASSERT_EQ(bands.size(), golden.size());
      for (std::size_t b = 0; b < bands.size(); ++b) {
        ASSERT_EQ(bands[b].size(), golden[b].size());
        for (std::size_t i = 0; i < bands[b].size(); ++i) {
          ASSERT_EQ(bands[b].data()[i], golden[b].data()[i])
              << stem << " lane " << echoimage::simd::isa_name(isa)
              << " threads " << threads << " band " << b << " pixel " << i;
        }
      }
    }
  }
}

TEST(GoldenImage, DegradedMaskMvdrBitExactToCommittedReference) {
  // The health gate has condemned channels 1 and 4: MVDR weights on the
  // surviving subarray against the masked noise covariance.
  echoimage::array::ChannelMask mask(6, true);
  mask[1] = false;
  mask[4] = false;
  expect_bit_exact_golden("golden_image_degraded_band", golden_config(),
                          mask);
}

TEST(GoldenImage, DelayAndSumBitExactToCommittedReference) {
  ImagingConfig cfg = golden_config();
  cfg.use_mvdr = false;
  expect_bit_exact_golden("golden_image_das_band", cfg, {});
}

}  // namespace
}  // namespace echoimage::core
