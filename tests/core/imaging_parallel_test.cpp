// Determinism suite for the parallel imaging engine: every thread count,
// grid shape, and subarray must reproduce the serial images bit for bit,
// and an image may depend on nothing but its own capture (see DESIGN.md,
// "Threading model").
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/imaging.hpp"
#include "core/pipeline.hpp"
#include "eval/dataset.hpp"
#include "eval/experiment.hpp"
#include "eval/roster.hpp"
#include "simd/isa.hpp"

namespace echoimage::core {
namespace {

using namespace echoimage::units::literals;

ImagingConfig small_config() {
  ImagingConfig cfg;
  cfg.grid_size = 12;  // keep the cross-product of modes fast
  cfg.grid_spacing_m = 0.06;
  cfg.num_subbands = 2;
  return cfg;
}

struct Fixture {
  echoimage::array::ArrayGeometry geometry =
      echoimage::array::make_respeaker_array();
  std::vector<echoimage::eval::SimulatedUser> users =
      echoimage::eval::make_users(echoimage::eval::make_roster(), 7);
  echoimage::eval::DataCollector collector{echoimage::sim::CaptureConfig{},
                                           geometry, 7};

  [[nodiscard]] echoimage::eval::CaptureBatch batch(std::size_t user = 0,
                                                    std::size_t beeps = 1) const {
    echoimage::eval::CollectionConditions cond;
    return collector.collect(users[user], cond, beeps);
  }
};

void expect_bitwise_equal(const std::vector<Matrix2D>& a,
                          const std::vector<Matrix2D>& b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t band = 0; band < a.size(); ++band) {
    ASSERT_EQ(a[band].rows(), b[band].rows()) << what;
    ASSERT_EQ(a[band].cols(), b[band].cols()) << what;
    for (std::size_t i = 0; i < a[band].size(); ++i)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a[band].data()[i]),
                std::bit_cast<std::uint64_t>(b[band].data()[i]))
          << what << ": band " << band << " pixel " << i;
  }
}

TEST(ParallelImaging, BitIdenticalAcrossThreadCounts) {
  const Fixture f;
  const auto batch = f.batch();
  ImagingConfig cfg = small_config();
  cfg.num_threads = 1;
  const std::vector<Matrix2D> serial =
      AcousticImager(cfg, f.geometry)
          .construct_bands(batch.beeps[0], 0.7_m, 0.0002, batch.noise_only);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    cfg.num_threads = threads;
    const std::vector<Matrix2D> parallel =
        AcousticImager(cfg, f.geometry)
            .construct_bands(batch.beeps[0], 0.7_m, 0.0002, batch.noise_only);
    expect_bitwise_equal(serial, parallel, "threads vs serial");
  }
}

TEST(ParallelImaging, ImageDependsOnlyOnItsOwnCapture) {
  // Capture B at 0.7004 m must image the same whether or not the imager
  // first saw capture A at 0.7000 m with the same noise capture: nothing
  // computed for one request (weights, gates, energies) may leak into the
  // next, however close their plane distances are.
  const Fixture f;
  const auto batch = f.batch(0, 2);
  const auto& capture_a = batch.beeps[0];
  const auto& capture_b = batch.beeps[1];
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ImagingConfig cfg = small_config();
    cfg.num_threads = threads;
    const auto fresh = AcousticImager(cfg, f.geometry)
                           .construct_bands(capture_b, 0.7004_m, 0.0002,
                                            batch.noise_only);
    const AcousticImager used(cfg, f.geometry);
    (void)used.construct_bands(capture_a, 0.7_m, 0.0002, batch.noise_only);
    expect_bitwise_equal(
        fresh,
        used.construct_bands(capture_b, 0.7004_m, 0.0002, batch.noise_only),
        "capture B after capture A");
  }
}

TEST(ParallelImaging, RepeatedRunsOnOneImagerAreBitIdentical) {
  const Fixture f;
  const auto batch = f.batch(0, 2);
  ImagingConfig cfg = small_config();
  cfg.num_threads = 2;
  const AcousticImager imager(cfg, f.geometry);
  // Repeated constructions on one imager must agree bitwise with each
  // other and with a fresh imager's cold run.
  const auto first =
      imager.construct_bands(batch.beeps[0], 0.7_m, 0.0002, batch.noise_only);
  const auto again =
      imager.construct_bands(batch.beeps[0], 0.7_m, 0.0002, batch.noise_only);
  expect_bitwise_equal(first, again, "repeat run");
  const auto cold = AcousticImager(cfg, f.geometry)
                        .construct_bands(batch.beeps[0], 0.7_m, 0.0002,
                                         batch.noise_only);
  expect_bitwise_equal(first, cold, "warm vs cold imager");
}

TEST(ParallelImaging, OddGridSizesStayDeterministic) {
  // 17x17 = 289 grids never splits evenly across 2 or 8 workers.
  const Fixture f;
  const auto batch = f.batch();
  ImagingConfig cfg = small_config();
  cfg.grid_size = 17;
  cfg.num_threads = 1;
  const auto serial =
      AcousticImager(cfg, f.geometry)
          .construct_bands(batch.beeps[0], 0.7_m, 0.0002, batch.noise_only);
  ASSERT_EQ(serial[0].rows(), 17u);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    cfg.num_threads = threads;
    expect_bitwise_equal(
        serial,
        AcousticImager(cfg, f.geometry)
            .construct_bands(batch.beeps[0], 0.7_m, 0.0002, batch.noise_only),
        "odd grid");
  }
}

TEST(ParallelImaging, DegradedChannelMaskStaysDeterministic) {
  const Fixture f;
  const auto batch = f.batch();
  echoimage::array::ChannelMask mask(f.geometry.num_mics(), true);
  mask[1] = false;
  mask[4] = false;  // the health gate condemned two channels
  ImagingConfig cfg = small_config();
  cfg.num_threads = 1;
  const auto serial = AcousticImager(cfg, f.geometry)
                          .construct_bands(batch.beeps[0], 0.7_m, 0.0002,
                                           batch.noise_only, -1.0, mask);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    cfg.num_threads = threads;
    expect_bitwise_equal(
        serial,
        AcousticImager(cfg, f.geometry)
            .construct_bands(batch.beeps[0], 0.7_m, 0.0002, batch.noise_only,
                             -1.0, mask),
        "degraded mask");
  }
  // The degraded subarray genuinely changes the image.
  cfg.num_threads = 1;
  const auto full = AcousticImager(cfg, f.geometry)
                        .construct_bands(batch.beeps[0], 0.7_m, 0.0002,
                                         batch.noise_only);
  double diff = 0.0;
  for (std::size_t i = 0; i < full[0].size(); ++i)
    diff += std::abs(full[0].data()[i] - serial[0].data()[i]);
  EXPECT_GT(diff, 0.0);
}

TEST(ParallelImaging, RecalibratedSpeedOfSoundStaysDeterministic) {
  // Environment drift recalibrates c (core/drift rebuilds the pipeline with
  // the corrected config); the recalibrated imager must be deterministic
  // too, and must not reproduce the stale-c images.
  const Fixture f;
  const auto batch = f.batch();
  ImagingConfig cfg = small_config();
  cfg.speed_of_sound = units::MetersPerSecond{349.6};  // ~35 C air
  cfg.num_threads = 1;
  const auto serial =
      AcousticImager(cfg, f.geometry)
          .construct_bands(batch.beeps[0], 0.7_m, 0.0002, batch.noise_only);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    cfg.num_threads = threads;
    expect_bitwise_equal(
        serial,
        AcousticImager(cfg, f.geometry)
            .construct_bands(batch.beeps[0], 0.7_m, 0.0002, batch.noise_only),
        "recalibrated c");
  }
  ImagingConfig stock = small_config();
  const auto baseline =
      AcousticImager(stock, f.geometry)
          .construct_bands(batch.beeps[0], 0.7_m, 0.0002, batch.noise_only);
  double diff = 0.0;
  for (std::size_t i = 0; i < baseline[0].size(); ++i)
    diff += std::abs(baseline[0].data()[i] - serial[0].data()[i]);
  EXPECT_GT(diff, 0.0);
}

TEST(ParallelImaging, IsaLanesBitIdenticalUnderThreadedEngine) {
  // The lane sweep under the parallel engine: this runs inside the TSan
  // build (tools/run_sanitized_tests.sh thread), so any race between the
  // kernel dispatch and the worker pool is caught here. Scalar serial is
  // the reference; every other lane x thread-count combination must
  // reproduce it bit for bit. Scenes: the 12x12 default, a 17x17 grid
  // (rows of four-pixel blocks plus a one-pixel tail), a 4-mic mask and
  // delay-and-sum weights.
  const Fixture f;
  const auto batch = f.batch();
  echoimage::array::ChannelMask four_mics(f.geometry.num_mics(), true);
  four_mics[0] = false;
  four_mics[3] = false;
  struct Scene {
    const char* name;
    std::size_t grid;
    echoimage::array::ChannelMask mask;
    bool mvdr;
  };
  for (const Scene& scene : {Scene{"grid 12", 12, {}, true},
                             Scene{"grid 17", 17, {}, true},
                             Scene{"4-mic mask", 12, four_mics, true},
                             Scene{"delay-and-sum", 12, {}, false}}) {
    ImagingConfig cfg = small_config();
    cfg.grid_size = scene.grid;
    cfg.use_mvdr = scene.mvdr;
    std::vector<Matrix2D> reference;
    {
      echoimage::simd::ScopedIsa forced(echoimage::simd::Isa::kScalar);
      cfg.num_threads = 1;
      reference = AcousticImager(cfg, f.geometry)
                      .construct_bands(batch.beeps[0], 0.7_m, 0.0002,
                                       batch.noise_only, -1.0, scene.mask);
    }
    for (echoimage::simd::Isa isa : echoimage::simd::supported_isas()) {
      echoimage::simd::ScopedIsa forced(isa);
      for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
        cfg.num_threads = threads;
        SCOPED_TRACE(::testing::Message()
                     << scene.name << ", lane "
                     << echoimage::simd::isa_name(isa) << ", " << threads
                     << " workers");
        expect_bitwise_equal(
            reference,
            AcousticImager(cfg, f.geometry)
                .construct_bands(batch.beeps[0], 0.7_m, 0.0002,
                                 batch.noise_only, -1.0, scene.mask),
            "isa lane");
      }
    }
  }
}

// The capture's beeps with beeps 1 and 3 cut to 1,536 samples, so a pass
// mixes two beep lengths (two matched-filter FFT lengths and two gate
// windows).
std::vector<MultiChannelSignal> mixed_length_beeps(
    const echoimage::eval::CaptureBatch& batch) {
  std::vector<MultiChannelSignal> beeps = batch.beeps;
  for (std::size_t b = 1; b < beeps.size(); b += 2)
    for (echoimage::dsp::Signal& ch : beeps[b].channels) ch.resize(1536);
  return beeps;
}

// The per-capture path: one imaging pass over every beep of a capture
// must image each beep bit for bit as the one-context-per-call wrapper
// does, and so must a one-beep pass on the shared context, at {1, 2, 3,
// 4, 8} workers and on every ISA lane. The reference is the serial
// wrapper.
void expect_context_matches_wrapper(const ImagingConfig& base,
                                    const echoimage::eval::CaptureBatch& batch,
                                    const MultiChannelSignal& noise,
                                    double tau_echo_s,
                                    const echoimage::array::ChannelMask& mask,
                                    const char* what) {
  const auto geometry = echoimage::array::make_respeaker_array();
  const std::vector<MultiChannelSignal> beeps = mixed_length_beeps(batch);
  ASSERT_EQ(beeps.size(), 4u);
  ASSERT_NE(beeps[0].length(), beeps[1].length());
  ImagingConfig cfg = base;
  cfg.num_threads = 1;
  const AcousticImager serial(cfg, geometry);
  std::vector<std::vector<Matrix2D>> reference;
  for (const MultiChannelSignal& beep : beeps)
    reference.push_back(serial.construct_bands(beep, 0.7_m, 0.0002, noise,
                                               tau_echo_s, mask));
  for (echoimage::simd::Isa isa : echoimage::simd::supported_isas()) {
    echoimage::simd::ScopedIsa forced(isa);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{3}, std::size_t{4},
                                      std::size_t{8}}) {
      cfg.num_threads = threads;
      const AcousticImager imager(cfg, geometry);
      const AcousticImager::CaptureContext context = imager.capture_context(
          0.7_m, beeps.front().length(), 0.0002, noise, tau_echo_s, mask);
      const std::vector<AcousticImage> pass =
          imager.construct_capture(beeps, context);
      ASSERT_EQ(pass.size(), beeps.size());
      for (std::size_t b = 0; b < beeps.size(); ++b) {
        SCOPED_TRACE(::testing::Message()
                     << what << ", lane " << echoimage::simd::isa_name(isa)
                     << ", " << threads << " workers, beep " << b);
        expect_bitwise_equal(reference[b], pass[b].bands, what);
        expect_bitwise_equal(
            reference[b],
            imager.construct_capture({&beeps[b], 1}, context).front().bands,
            what);
      }
    }
  }
}

TEST(ParallelImaging, CaptureContextMatchesPerBeepWrapperWithDegradedMask) {
  const Fixture f;
  const auto batch = f.batch(0, 4);
  echoimage::array::ChannelMask mask(f.geometry.num_mics(), true);
  mask[1] = false;
  mask[4] = false;
  expect_context_matches_wrapper(small_config(), batch, batch.noise_only,
                                 -1.0, mask, "degraded mask");
}

TEST(ParallelImaging, CaptureContextMatchesPerBeepWrapperWithoutNoise) {
  const Fixture f;
  const auto batch = f.batch(0, 4);
  expect_context_matches_wrapper(small_config(), batch, {}, -1.0, {},
                                 "empty noise capture");
}

TEST(ParallelImaging, CaptureContextMatchesPerBeepWrapperWithOneBand) {
  const Fixture f;
  const auto batch = f.batch(0, 4);
  ImagingConfig cfg = small_config();
  cfg.num_subbands = 1;
  expect_context_matches_wrapper(cfg, batch, batch.noise_only, -1.0, {},
                                 "one band");
}

TEST(ParallelImaging, CaptureContextMatchesPerBeepWrapperOnClippedRawGates) {
  // The scene of golden_image_clipped_band*: echo-anchored, uncompressed
  // gates with the echo 54 ms into the 60 ms capture, so some gates are
  // clipped at the capture's end and some start past it.
  const Fixture f;
  const auto batch = f.batch(0, 4);
  ImagingConfig cfg = small_config();
  cfg.grid_size = 16;
  cfg.grid_spacing_m = 0.2;
  cfg.anchor_to_echo = true;
  cfg.pulse_compression = false;
  expect_context_matches_wrapper(cfg, batch, batch.noise_only, 0.054, {},
                                 "clipped raw gates");
}

TEST(ParallelImaging, CaptureContextMatchesPerBeepWrapperAtTheMixExtremes) {
  // mix = 1 skips every direction, weight and gate covariance; mix = 0
  // skips the incoherent energies. Both still reproduce the wrapper.
  const Fixture f;
  const auto batch = f.batch(0, 4);
  for (const double mix : {0.0, 1.0}) {
    ImagingConfig cfg = small_config();
    cfg.incoherent_mix = mix;
    expect_context_matches_wrapper(cfg, batch, batch.noise_only, -1.0, {},
                                   mix == 0.0 ? "coherent only"
                                              : "incoherent only");
  }
}

TEST(ParallelImaging, CaptureContextServesABeepOfAnotherLength) {
  // A context sized for a longer beep (another matched-filter FFT length)
  // recomputes the template spectra for this beep instead of reusing its
  // own, so the image still matches the wrapper.
  const Fixture f;
  const auto batch = f.batch();
  ImagingConfig cfg = small_config();
  cfg.num_threads = 2;
  const AcousticImager imager(cfg, f.geometry);
  const AcousticImager::CaptureContext context = imager.capture_context(
      0.7_m, 4 * batch.beeps[0].length(), 0.0002, batch.noise_only);
  expect_bitwise_equal(
      imager.construct_bands(batch.beeps[0], 0.7_m, 0.0002, batch.noise_only),
      imager.construct_capture({&batch.beeps[0], 1}, context).front().bands,
      "other beep length");
}

TEST(ParallelImaging, ProcessMatchesThePerBeepRecomposition) {
  // What a caller that recomposes `process` from public per-beep calls
  // sees (distance estimate, then construct_bands per beep with the
  // capture's plane and anchors) must be exactly what the per-capture
  // path produced, at every worker count.
  const Fixture f;
  const auto batch = f.batch(0, 4);
  SystemConfig config = echoimage::eval::default_system_config();
  config.imaging.grid_size = 12;
  config.imaging.grid_spacing_m = 0.06;
  config.imaging.num_subbands = 2;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{8}}) {
    config.num_threads = threads;
    const EchoImagePipeline pipeline(config, f.geometry);
    const ProcessedBeeps processed =
        pipeline.process(batch.beeps, batch.noise_only);
    ASSERT_TRUE(processed.distance.valid);
    ASSERT_EQ(processed.dropped_channels, 0u);
    ASSERT_EQ(processed.images.size(), batch.beeps.size());
    const DistanceEstimate distance =
        pipeline.distance_estimator().estimate(batch.beeps, batch.noise_only);
    const units::Meters plane{distance.user_distance_centroid_m > 0.0
                                  ? distance.user_distance_centroid_m
                                  : distance.user_distance_m};
    for (std::size_t b = 0; b < batch.beeps.size(); ++b) {
      SCOPED_TRACE(::testing::Message() << threads << " workers, beep " << b);
      expect_bitwise_equal(
          pipeline.imager().construct_bands(
              batch.beeps[b], plane, distance.tau_direct_s, batch.noise_only,
              distance.tau_echo_centroid_s),
          processed.images[b].bands, "process vs recomposition");
    }
  }
}

TEST(ParallelImaging, AugmenterSynthesizesBitIdenticallyAcrossPools) {
  const Fixture f;
  const auto batch = f.batch();
  ImagingConfig cfg = small_config();
  const Matrix2D source =
      AcousticImager(cfg, f.geometry)
          .construct(batch.beeps[0], 0.7_m, 0.0002, batch.noise_only);
  const std::vector<double> targets{0.5, 0.6, 0.8, 0.9, 1.1, 1.3, 1.7};
  const DataAugmenter serial(cfg);
  const std::vector<Matrix2D> want = serial.synthesize(source, 0.7, targets);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const auto pool =
        std::make_shared<echoimage::runtime::ThreadPool>(threads);
    const DataAugmenter parallel(cfg, pool);
    expect_bitwise_equal(want, parallel.synthesize(source, 0.7, targets),
                         "augmenter");
  }
}

TEST(ParallelImaging, ExperimentResultsAreIdenticalAcrossThreadCounts) {
  // Session-level fan-out: the whole experiment — enrollment, testing,
  // confusion matrices, scores, accumulated distance error — must match the
  // serial run exactly when threaded.
  echoimage::eval::ExperimentConfig cfg;
  cfg.system = echoimage::eval::default_system_config();
  cfg.system.imaging.grid_size = 12;
  cfg.system.imaging.num_subbands = 1;
  cfg.system.extractor.input_size = 12;
  cfg.system.extractor.block_channels = {8};  // 12px survives one pool
  cfg.system.extractor.bypass_network = true;
  cfg.num_registered = 2;
  cfg.num_spoofers = 1;
  cfg.train_beeps = 4;
  cfg.train_visits = 2;
  cfg.test_beeps = 2;
  cfg.system.num_threads = 1;
  cfg.system.harmonize();
  const auto serial = echoimage::eval::run_authentication_experiment(cfg);
  cfg.system.num_threads = 2;
  cfg.system.harmonize();
  const auto threaded = echoimage::eval::run_authentication_experiment(cfg);

  EXPECT_EQ(serial.valid_estimates, threaded.valid_estimates);
  EXPECT_EQ(serial.invalid_estimates, threaded.invalid_estimates);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.mean_abs_distance_error_m),
            std::bit_cast<std::uint64_t>(threaded.mean_abs_distance_error_m));
  ASSERT_EQ(serial.genuine_scores.size(), threaded.genuine_scores.size());
  for (std::size_t i = 0; i < serial.genuine_scores.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.genuine_scores[i]),
              std::bit_cast<std::uint64_t>(threaded.genuine_scores[i]));
  ASSERT_EQ(serial.impostor_scores.size(), threaded.impostor_scores.size());
  for (std::size_t i = 0; i < serial.impostor_scores.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.impostor_scores[i]),
              std::bit_cast<std::uint64_t>(threaded.impostor_scores[i]));
  EXPECT_EQ(serial.confusion.total(), threaded.confusion.total());
  for (const int actual : serial.confusion.labels())
    for (const int predicted : serial.confusion.labels())
      EXPECT_EQ(serial.confusion.count(actual, predicted),
                threaded.confusion.count(actual, predicted));
}

}  // namespace
}  // namespace echoimage::core
