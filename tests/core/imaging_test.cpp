#include "core/imaging.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "dsp/signal.hpp"
#include "eval/dataset.hpp"
#include "eval/roster.hpp"

namespace echoimage::core {
namespace {

using namespace echoimage::units::literals;

ImagingConfig small_config() {
  ImagingConfig cfg;
  cfg.grid_size = 16;  // keep unit tests fast
  cfg.grid_spacing_m = 0.045;
  return cfg;
}

struct Fixture {
  echoimage::array::ArrayGeometry geometry =
      echoimage::array::make_respeaker_array();
  std::vector<echoimage::eval::SimulatedUser> users =
      echoimage::eval::make_users(echoimage::eval::make_roster(), 7);
  echoimage::eval::DataCollector collector{echoimage::sim::CaptureConfig{},
                                           geometry, 7};
};

TEST(AcousticImager, ConfigValidation) {
  const auto g = echoimage::array::make_respeaker_array();
  ImagingConfig cfg = small_config();
  cfg.grid_size = 0;
  EXPECT_THROW(AcousticImager(cfg, g), std::invalid_argument);
  cfg = small_config();
  cfg.grid_spacing_m = 0.0;
  EXPECT_THROW(AcousticImager(cfg, g), std::invalid_argument);
  cfg = small_config();
  cfg.num_subbands = 0;
  EXPECT_THROW(AcousticImager(cfg, g), std::invalid_argument);
}

TEST(AcousticImager, RejectsNonPositivePlaneDistance) {
  const Fixture f;
  const AcousticImager imager(small_config(), f.geometry);
  echoimage::eval::CollectionConditions cond;
  const auto batch = f.collector.collect(f.users[0], cond, 1);
  EXPECT_THROW((void)imager.construct(batch.beeps[0], 0.0_m),
               std::invalid_argument);
  EXPECT_THROW((void)imager.construct_bands(batch.beeps[0], -1.0_m),
               std::invalid_argument);
}

TEST(AcousticImager, ImageHasConfiguredShapeAndNonNegativePixels) {
  const Fixture f;
  const AcousticImager imager(small_config(), f.geometry);
  echoimage::eval::CollectionConditions cond;
  const auto batch = f.collector.collect(f.users[0], cond, 1);
  const Matrix2D img =
      imager.construct(batch.beeps[0], 0.7_m, 0.0002, batch.noise_only);
  EXPECT_EQ(img.rows(), 16u);
  EXPECT_EQ(img.cols(), 16u);
  double total = 0.0;
  for (const double v : img.data()) {
    EXPECT_GE(v, 0.0);
    total += v;
  }
  EXPECT_GT(total, 0.0);  // the user reflects energy
}

TEST(AcousticImager, ConstructBandsReturnsOneImagePerSubband) {
  const Fixture f;
  ImagingConfig cfg = small_config();
  cfg.num_subbands = 3;
  const AcousticImager imager(cfg, f.geometry);
  echoimage::eval::CollectionConditions cond;
  const auto batch = f.collector.collect(f.users[0], cond, 1);
  const auto bands =
      imager.construct_bands(batch.beeps[0], 0.7_m, 0.0002, batch.noise_only);
  ASSERT_EQ(bands.size(), 3u);
  for (const Matrix2D& b : bands) {
    EXPECT_EQ(b.rows(), 16u);
    EXPECT_GT(echoimage::dsp::energy(b.data()), 0.0);
  }
}

TEST(AcousticImager, CapturePassImagesNothingFromNothingAndRejectsBadBeeps) {
  const Fixture f;
  const AcousticImager imager(small_config(), f.geometry);
  echoimage::eval::CollectionConditions cond;
  const auto batch = f.collector.collect(f.users[0], cond, 1);
  const AcousticImager::CaptureContext context = imager.capture_context(
      0.7_m, batch.beeps[0].length(), 0.0002, batch.noise_only);
  EXPECT_TRUE(imager.construct_capture({}, context).empty());
  MultiChannelSignal five_mics = batch.beeps[0];
  five_mics.channels.pop_back();
  const std::vector<MultiChannelSignal> beeps{batch.beeps[0], five_mics};
  EXPECT_THROW((void)imager.construct_capture(beeps, context),
               std::invalid_argument);
}

TEST(AcousticImager, BandsSumToCompoundedImageEnergy) {
  // construct() compounds band energies: sum of squared band pixels must
  // equal the squared compounded pixel.
  const Fixture f;
  ImagingConfig cfg = small_config();
  cfg.num_subbands = 2;
  const AcousticImager imager(cfg, f.geometry);
  echoimage::eval::CollectionConditions cond;
  const auto batch = f.collector.collect(f.users[1], cond, 1);
  const auto bands =
      imager.construct_bands(batch.beeps[0], 0.7_m, 0.0002, batch.noise_only);
  const Matrix2D sum =
      imager.construct(batch.beeps[0], 0.7_m, 0.0002, batch.noise_only);
  for (std::size_t i = 0; i < sum.size(); ++i) {
    const double via_bands = bands[0].data()[i] * bands[0].data()[i] +
                             bands[1].data()[i] * bands[1].data()[i];
    EXPECT_NEAR(sum.data()[i] * sum.data()[i], via_bands,
                1e-6 * (1.0 + via_bands));
  }
}

TEST(AcousticImager, SameUserSameStanceImagesAgree) {
  const Fixture f;
  const AcousticImager imager(small_config(), f.geometry);
  echoimage::eval::CollectionConditions cond;
  cond.beeps_per_stance = 4;
  const auto batch = f.collector.collect(f.users[0], cond, 2);
  const Matrix2D a =
      imager.construct(batch.beeps[0], 0.7_m, 0.0002, batch.noise_only);
  const Matrix2D b =
      imager.construct(batch.beeps[1], 0.7_m, 0.0002, batch.noise_only);
  EXPECT_GT(echoimage::dsp::pearson(a.data(), b.data()), 0.95);
}

TEST(AcousticImager, DifferentUsersProduceDifferentImages) {
  const Fixture f;
  const AcousticImager imager(small_config(), f.geometry);
  echoimage::eval::CollectionConditions cond;
  const auto ba = f.collector.collect(f.users[0], cond, 1);
  const auto bb = f.collector.collect(f.users[3], cond, 1);
  const Matrix2D a = imager.construct(ba.beeps[0], 0.7_m, 0.0002, ba.noise_only);
  const Matrix2D b = imager.construct(bb.beeps[0], 0.7_m, 0.0002, bb.noise_only);
  // Normalized difference must be well away from zero.
  const double corr = echoimage::dsp::pearson(a.data(), b.data());
  EXPECT_LT(corr, 0.95);
}

TEST(AcousticImager, DirectSuppressionRemovesSelfInterference) {
  const Fixture f;
  ImagingConfig with = small_config();
  ImagingConfig without = small_config();
  without.suppress_direct = false;
  echoimage::eval::CollectionConditions cond;
  const auto batch = f.collector.collect(f.users[0], cond, 1);
  const Matrix2D img_with =
      AcousticImager(with, f.geometry)
          .construct(batch.beeps[0], 0.7_m, 0.0002, batch.noise_only);
  const Matrix2D img_without =
      AcousticImager(without, f.geometry)
          .construct(batch.beeps[0], 0.7_m, 0.0002, batch.noise_only);
  // The direct chirp is ~50 dB above echoes: its Hilbert tails inflate
  // pixel energy when not suppressed.
  double e_with = 0.0, e_without = 0.0;
  for (const double v : img_with.data()) e_with += v * v;
  for (const double v : img_without.data()) e_without += v * v;
  EXPECT_GT(e_without, e_with);
}

TEST(AcousticImager, IncoherentMixZeroUsesCoherentPath) {
  const Fixture f;
  ImagingConfig coh = small_config();
  coh.incoherent_mix = 0.0;
  ImagingConfig inc = small_config();
  inc.incoherent_mix = 1.0;
  echoimage::eval::CollectionConditions cond;
  const auto batch = f.collector.collect(f.users[0], cond, 1);
  const Matrix2D a = AcousticImager(coh, f.geometry)
                         .construct(batch.beeps[0], 0.7_m, 0.0002,
                                    batch.noise_only);
  const Matrix2D b = AcousticImager(inc, f.geometry)
                         .construct(batch.beeps[0], 0.7_m, 0.0002,
                                    batch.noise_only);
  // The two modes are genuinely different images.
  double diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    diff += std::abs(a.data()[i] - b.data()[i]);
  EXPECT_GT(diff, 0.0);
}

TEST(AcousticImager, IncoherentImageIsRadiallySymmetric) {
  // Pure incoherent pixels depend only on the gate (grid distance), so
  // grids at equal D_k share values.
  const Fixture f;
  ImagingConfig cfg = small_config();
  cfg.incoherent_mix = 1.0;
  const AcousticImager imager(cfg, f.geometry);
  echoimage::eval::CollectionConditions cond;
  const auto batch = f.collector.collect(f.users[0], cond, 1);
  const Matrix2D img =
      imager.construct(batch.beeps[0], 0.7_m, 0.0002, batch.noise_only);
  // Mirror symmetry in x: col c vs col (N-1-c) sit at identical D_k.
  for (std::size_t r = 0; r < img.rows(); ++r)
    for (std::size_t c = 0; c < img.cols() / 2; ++c)
      EXPECT_NEAR(img(r, c), img(r, img.cols() - 1 - c),
                  1e-6 * (1.0 + img(r, c)));
}

TEST(GridDistance, GeometryMatchesEq13) {
  const ImagingConfig cfg = small_config();
  const double dp = 0.8;
  // Center grid: x ~ 0, z ~ plane_center -> D_k ~ sqrt(x^2+dp^2+z^2).
  const double half =
      0.5 * static_cast<double>(cfg.grid_size - 1) * cfg.grid_spacing_m;
  for (std::size_t r = 0; r < cfg.grid_size; r += 5) {
    for (std::size_t c = 0; c < cfg.grid_size; c += 5) {
      const double x = static_cast<double>(c) * cfg.grid_spacing_m - half;
      const double z = cfg.plane_center_z_m + half -
                       static_cast<double>(r) * cfg.grid_spacing_m;
      EXPECT_NEAR(grid_distance(cfg, r, c, units::Meters{dp}).value(),
                  std::sqrt(x * x + dp * dp + z * z), 1e-12);
    }
  }
}

TEST(GridDistance, CornerGridsAreFartherThanCenter) {
  const ImagingConfig cfg = small_config();
  const units::Meters center =
      grid_distance(cfg, cfg.grid_size / 2, cfg.grid_size / 2, 0.7_m);
  const units::Meters corner = grid_distance(cfg, 0, 0, 0.7_m);
  EXPECT_GT(corner, center);
}

}  // namespace
}  // namespace echoimage::core
