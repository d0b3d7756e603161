#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include "eval/dataset.hpp"
#include "eval/experiment.hpp"
#include "eval/roster.hpp"

namespace echoimage::core {
namespace {

SystemConfig fast_config() {
  SystemConfig cfg = echoimage::eval::default_system_config();
  cfg.imaging.grid_size = 16;
  cfg.imaging.grid_spacing_m = 0.045;
  cfg.extractor.input_size = 16;
  cfg.extractor.block_channels = {4, 8};
  cfg.imaging.num_subbands = 2;  // keep the fast test config fast
  cfg.harmonize();
  return cfg;
}

struct Fixture {
  echoimage::array::ArrayGeometry geometry =
      echoimage::array::make_respeaker_array();
  EchoImagePipeline pipeline{fast_config(), geometry};
  std::vector<echoimage::eval::SimulatedUser> users =
      echoimage::eval::make_users(echoimage::eval::make_roster(), 7);
  echoimage::eval::DataCollector collector{echoimage::sim::CaptureConfig{},
                                           geometry, 7};
};

TEST(SystemConfig, HarmonizePropagatesSharedFields) {
  SystemConfig cfg;
  cfg.sample_rate = 44100.0;
  cfg.chirp.f_start = units::Hertz{2100.0};
  cfg.distance.bandpass_low_hz = 1900.0;
  cfg.harmonize();
  EXPECT_DOUBLE_EQ(cfg.distance.sample_rate, 44100.0);
  EXPECT_DOUBLE_EQ(cfg.imaging.sample_rate, 44100.0);
  EXPECT_DOUBLE_EQ(cfg.imaging.chirp.f_start.value(), 2100.0);
  EXPECT_DOUBLE_EQ(cfg.imaging.bandpass_low_hz, 1900.0);
}

TEST(Pipeline, ProcessThrowsOnEmptyBatch) {
  const Fixture f;
  EXPECT_THROW((void)f.pipeline.process({}), std::invalid_argument);
}

TEST(Pipeline, ProcessProducesOneImagePerBeep) {
  const Fixture f;
  echoimage::eval::CollectionConditions cond;
  const auto batch = f.collector.collect(f.users[0], cond, 3);
  const ProcessedBeeps p = f.pipeline.process(batch.beeps, batch.noise_only);
  ASSERT_TRUE(p.distance.valid);
  ASSERT_EQ(p.images.size(), 3u);
  for (const AcousticImage& img : p.images) {
    EXPECT_EQ(img.bands.size(),
              f.pipeline.config().imaging.num_subbands);
    EXPECT_EQ(img.bands.front().rows(), 16u);
  }
}

TEST(Pipeline, DeadlineIsPolledOnlyAroundTheImagingPass) {
  // A probe that never fires is polled twice: before the capture context
  // and after the one pass that images every beep — never per beep.
  const Fixture f;
  echoimage::eval::CollectionConditions cond;
  const auto batch = f.collector.collect(f.users[0], cond, 3);
  std::size_t polls = 0;
  const ProcessedBeeps p =
      f.pipeline.process(batch.beeps, batch.noise_only, [&polls] {
        ++polls;
        return false;
      });
  ASSERT_TRUE(p.distance.valid);
  EXPECT_FALSE(p.deadline_expired);
  EXPECT_EQ(p.images.size(), 3u);
  EXPECT_EQ(polls, 2u);
}

TEST(Pipeline, DeadlineExpiringDuringTheImagingPassDiscardsEveryImage) {
  // The probe holds at its first poll (before the capture context) and has
  // expired from then on: the pass runs, then the poll after it discards
  // every image. A late capture comes back with no images, never with a
  // prefix of its beeps.
  const Fixture f;
  echoimage::eval::CollectionConditions cond;
  const auto batch = f.collector.collect(f.users[0], cond, 3);
  std::size_t polls = 0;
  const ProcessedBeeps p = f.pipeline.process(
      batch.beeps, batch.noise_only, [&polls] { return polls++ > 0; });
  EXPECT_TRUE(p.distance.valid);
  EXPECT_TRUE(p.deadline_expired);
  EXPECT_TRUE(p.images.empty());
  EXPECT_EQ(polls, 2u);
}

TEST(Pipeline, FeaturesConcatenateBands) {
  const Fixture f;
  echoimage::eval::CollectionConditions cond;
  const auto batch = f.collector.collect(f.users[0], cond, 1);
  const ProcessedBeeps p = f.pipeline.process(batch.beeps, batch.noise_only);
  ASSERT_FALSE(p.images.empty());
  const auto feat = f.pipeline.features(p.images.front());
  EXPECT_EQ(feat.size(), f.pipeline.extractor().feature_dim() *
                             p.images.front().bands.size());
}

TEST(Pipeline, FeaturesBatchWithAugmentationMultipliesSamples) {
  const Fixture f;
  echoimage::eval::CollectionConditions cond;
  const auto batch = f.collector.collect(f.users[0], cond, 2);
  const ProcessedBeeps p = f.pipeline.process(batch.beeps, batch.noise_only);
  const auto plain = f.pipeline.features_batch(p.images, 0.7, false);
  const auto aug = f.pipeline.features_batch(p.images, 0.7, true);
  EXPECT_EQ(plain.size(), 2u);
  EXPECT_EQ(aug.size(),
            2u * (1u + f.pipeline.config().augmentation_distances_m.size()));
}

TEST(Pipeline, EndToEndEnrollAndAuthenticate) {
  const Fixture f;
  echoimage::eval::CollectionConditions cond;
  cond.beeps_per_stance = 3;
  // Enroll two users.
  std::vector<EnrolledUser> enrolled;
  for (const std::size_t u : {0u, 3u}) {
    const auto batch = f.collector.collect(f.users[u], cond, 12);
    const ProcessedBeeps p = f.pipeline.process(batch.beeps, batch.noise_only);
    ASSERT_TRUE(p.distance.valid);
    EnrolledUser e;
    e.user_id = f.users[u].subject.user_id;
    e.features = f.pipeline.features_batch(
        p.images, p.distance.user_distance_centroid_m, false);
    enrolled.push_back(std::move(e));
  }
  const Authenticator auth = f.pipeline.enroll(enrolled);
  EXPECT_EQ(auth.num_users(), 2u);
  // A fresh capture of user 0 should mostly authenticate as user 0.
  echoimage::eval::CollectionConditions fresh = cond;
  fresh.repetition = 1;
  const auto test = f.collector.collect(f.users[0], fresh, 4);
  const ProcessedBeeps p = f.pipeline.process(test.beeps, test.noise_only);
  std::size_t as_user0 = 0;
  for (const auto& img : p.images) {
    const AuthDecision d = auth.authenticate(f.pipeline.features(img));
    if (d.accepted && d.user_id == f.users[0].subject.user_id) ++as_user0;
  }
  // The fast 16x16 configuration is weaker than the default; require a
  // majority rather than perfection.
  EXPECT_GE(as_user0, 2u);
}

TEST(SystemConfig, DescribeMentionsKeyParameters) {
  const SystemConfig cfg = echoimage::eval::default_system_config();
  const std::string s = cfg.describe();
  EXPECT_NE(s.find("2000"), std::string::npos);  // chirp band
  EXPECT_NE(s.find("3000"), std::string::npos);
  EXPECT_NE(s.find("48x48"), std::string::npos);  // image grid
  EXPECT_NE(s.find("MVDR"), std::string::npos);
  EXPECT_NE(s.find("pulse-compressed"), std::string::npos);
}

TEST(Pipeline, AccessorsExposeComponents) {
  const Fixture f;
  EXPECT_EQ(f.pipeline.imager().config().grid_size, 16u);
  EXPECT_EQ(f.pipeline.extractor().config().input_size, 16u);
  EXPECT_DOUBLE_EQ(f.pipeline.distance_estimator().config().sample_rate,
                   48000.0);
}

}  // namespace
}  // namespace echoimage::core
