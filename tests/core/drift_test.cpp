// DriftMonitor / DriftManager behaviour: cold start is not drift, clean
// captures stay undetected, each drift component is detected and attributed
// to the right statistic, occupied captures never contribute clutter
// statistics, and recalibration recovers the physical constants (or refuses
// to converge rather than installing garbage).
#include <gtest/gtest.h>

#include <cmath>

#include "array/geometry.hpp"
#include "core/drift.hpp"
#include "eval/dataset.hpp"
#include "eval/experiment.hpp"
#include "sim/drift.hpp"

namespace echoimage {
namespace {

struct Fixture {
  array::ArrayGeometry geometry = array::make_respeaker_array();
  core::SystemConfig config = eval::default_system_config();
  core::EchoImagePipeline pipeline{config, geometry};
  eval::DataCollector collector{sim::CaptureConfig{}, geometry, 7};
  eval::CollectionConditions cond;

  [[nodiscard]] eval::CaptureBatch background(int rep) const {
    eval::CollectionConditions c = cond;
    c.repetition = rep;
    return collector.collect_background(c, 3);
  }
  [[nodiscard]] eval::CaptureBatch background(
      int rep, const sim::DriftSessionState& drift) const {
    eval::CollectionConditions c = cond;
    c.repetition = rep;
    return collector.collect_background(c, 3, drift);
  }
  /// A drift state whose only departure from enrollment conditions is the
  /// given component; the room layout matches the collector's lab scene.
  [[nodiscard]] sim::DriftSessionState neutral_state() const {
    sim::DriftSessionState s;
    s.environment = collector.make_scene(cond).environment;
    s.mic_gains.assign(geometry.num_mics(), 1.0);
    return s;
  }
  [[nodiscard]] core::DriftMonitor monitor() const {
    return core::DriftMonitor(core::make_drift_monitor_config(config));
  }
};

TEST(DriftMonitor, ColdStartWithoutReferenceIsNotDrift) {
  const Fixture f;
  core::DriftMonitor monitor = f.monitor();
  ASSERT_FALSE(monitor.has_reference());
  const eval::CaptureBatch b = f.background(0);
  const core::DriftReport rep =
      monitor.observe(b.beeps, b.noise_only, /*occupied=*/false);
  EXPECT_FALSE(rep.reference_set);
  EXPECT_EQ(rep.verdict, core::DriftVerdict::kNone);
  EXPECT_FALSE(rep.noise_floor.evaluated);
  EXPECT_FALSE(rep.clutter_profile.evaluated);
  EXPECT_EQ(rep.describe(), "drift: no reference (cold start)");
}

TEST(DriftMonitor, ReferenceCapturesTheRoomLandmarks) {
  const Fixture f;
  core::DriftMonitor monitor = f.monitor();
  const eval::CaptureBatch b = f.background(0);
  monitor.set_reference(b.beeps, b.noise_only);
  ASSERT_TRUE(monitor.has_reference());
  const core::BackgroundReference& ref = monitor.reference();
  EXPECT_EQ(ref.channel_rms.size(), f.geometry.num_mics());
  EXPECT_EQ(ref.noise_band_db.size(), monitor.config().num_noise_bands);
  EXPECT_FALSE(ref.clutter_profile.empty());
  // The lab's walls sit 2.6-3.1 m out: the strongest background echo must
  // land in the 14-20 ms round-trip range, well past the direct arrival.
  EXPECT_GT(ref.relative_onset_s(), 0.012);
  EXPECT_LT(ref.relative_onset_s(), 0.022);
}

TEST(DriftMonitor, CleanCapturesStayUndetected) {
  const Fixture f;
  core::DriftMonitor monitor = f.monitor();
  const eval::CaptureBatch ref = f.background(0);
  monitor.set_reference(ref.beeps, ref.noise_only);
  for (int rep = 1; rep <= 6; ++rep) {
    const eval::CaptureBatch b = f.background(rep);
    const core::DriftReport r =
        monitor.observe(b.beeps, b.noise_only, /*occupied=*/false);
    ASSERT_EQ(r.verdict, core::DriftVerdict::kNone) << r.describe();
  }
}

TEST(DriftMonitor, NoiseGapLengthIsNotAmbientDrift) {
  // The reference's noise gap is 2,048 samples. Live gaps of 4,096 (two
  // back-to-back renders of the same room) and 3,000 (the same, cut short:
  // not a power of two, so its spectrum is zero-padded) carry the same
  // ambient noise, so the noise floor must not read them as louder.
  const Fixture f;
  core::DriftMonitor monitor = f.monitor();
  const eval::CaptureBatch ref = f.background(0);
  ASSERT_EQ(ref.noise_only.length(), 2048u);
  monitor.set_reference(ref.beeps, ref.noise_only);
  for (int rep = 1; rep <= 6; ++rep) {
    const eval::CaptureBatch b = f.background(rep);
    const eval::CaptureBatch more = f.background(rep + 100);
    const std::size_t gap = rep % 2 == 0 ? 3000 : 4096;
    dsp::MultiChannelSignal noise = b.noise_only;
    for (std::size_t c = 0; c < noise.num_channels(); ++c) {
      dsp::Signal& ch = noise.channels[c];
      ch.insert(ch.end(), more.noise_only.channels[c].begin(),
                more.noise_only.channels[c].end());
      ch.resize(gap);
    }
    const core::DriftReport r =
        monitor.observe(b.beeps, noise, /*occupied=*/false);
    ASSERT_TRUE(r.noise_floor.evaluated);
    ASSERT_EQ(r.noise_floor.verdict, core::DriftVerdict::kNone)
        << "gap " << gap << ": " << r.describe();
  }
}

TEST(DriftMonitor, GainDriftConfirmedAndAttributedToChannelGains) {
  const Fixture f;
  core::DriftMonitor monitor = f.monitor();
  const eval::CaptureBatch ref = f.background(0);
  monitor.set_reference(ref.beeps, ref.noise_only);
  sim::DriftSessionState drift = f.neutral_state();
  drift.mic_gains = {1.35, 0.7, 1.25, 0.75, 1.3, 0.8};
  core::DriftReport last;
  for (int rep = 1; rep <= 8 && last.verdict != core::DriftVerdict::kConfirmed;
       ++rep) {
    const eval::CaptureBatch b = f.background(rep, drift);
    last = monitor.observe(b.beeps, b.noise_only, /*occupied=*/false);
  }
  ASSERT_EQ(last.verdict, core::DriftVerdict::kConfirmed) << last.describe();
  EXPECT_EQ(last.channel_gains.verdict, core::DriftVerdict::kConfirmed)
      << last.describe();
  EXPECT_STREQ(last.dominant(), "channel-gains");
}

TEST(DriftMonitor, AmbientRampConfirmedViaNoiseFloor) {
  const Fixture f;
  core::DriftMonitor monitor = f.monitor();
  const eval::CaptureBatch ref = f.background(0);
  monitor.set_reference(ref.beeps, ref.noise_only);
  // The room got 15 dB louder (HVAC, appliances) but nothing else moved.
  eval::CollectionConditions loud = f.cond;
  loud.ambient_db = 45.0;
  core::DriftReport last;
  for (int rep = 1; rep <= 8 && last.verdict != core::DriftVerdict::kConfirmed;
       ++rep) {
    eval::CollectionConditions c = loud;
    c.repetition = rep;
    const eval::CaptureBatch b = f.collector.collect_background(c, 3);
    last = monitor.observe(b.beeps, b.noise_only, /*occupied=*/false);
  }
  ASSERT_EQ(last.verdict, core::DriftVerdict::kConfirmed) << last.describe();
  EXPECT_EQ(last.noise_floor.verdict, core::DriftVerdict::kConfirmed)
      << last.describe();
  // Uniform loudness is common-mode: the inter-channel gain statistic must
  // NOT be the one that fires.
  EXPECT_NE(last.channel_gains.verdict, core::DriftVerdict::kConfirmed);
}

TEST(DriftMonitor, TemperatureShiftConfirmedViaOnsetDelay) {
  const Fixture f;
  core::DriftMonitor monitor = f.monitor();
  const eval::CaptureBatch ref = f.background(0);
  monitor.set_reference(ref.beeps, ref.noise_only);
  // The room warmed 12 C: sound speeds up, every echo arrives earlier,
  // and the wall landmark slides ~2% closer in delay.
  sim::DriftSessionState drift = f.neutral_state();
  drift.temperature_c = 32.0;
  drift.sound_speed_scale = array::speed_of_sound_at(units::Celsius{32.0}) /
                            array::speed_of_sound_at(units::Celsius{20.0});
  core::DriftReport last;
  for (int rep = 1; rep <= 10 &&
                    last.verdict != core::DriftVerdict::kConfirmed;
       ++rep) {
    const eval::CaptureBatch b = f.background(rep, drift);
    last = monitor.observe(b.beeps, b.noise_only, /*occupied=*/false);
  }
  ASSERT_EQ(last.verdict, core::DriftVerdict::kConfirmed) << last.describe();
  EXPECT_EQ(last.onset_delay.verdict, core::DriftVerdict::kConfirmed)
      << last.describe();
}

TEST(DriftMonitor, OccupiedCapturesSkipClutterStatistics) {
  const Fixture f;
  core::DriftMonitor monitor = f.monitor();
  const eval::CaptureBatch ref = f.background(0);
  monitor.set_reference(ref.beeps, ref.noise_only);
  const eval::CaptureBatch b = f.background(1);
  const core::DriftReport r =
      monitor.observe(b.beeps, b.noise_only, /*occupied=*/true);
  EXPECT_TRUE(r.occupied);
  EXPECT_TRUE(r.noise_floor.evaluated);
  EXPECT_TRUE(r.channel_gains.evaluated);
  EXPECT_FALSE(r.clutter_profile.evaluated);
  EXPECT_FALSE(r.onset_delay.evaluated);
}

TEST(DriftMonitor, SingleOutlierCaptureCannotConfirm) {
  // min_observations guards the cold start: however wild the very first
  // observation, the verdict stays below kConfirmed.
  const Fixture f;
  core::DriftMonitor monitor = f.monitor();
  const eval::CaptureBatch ref = f.background(0);
  monitor.set_reference(ref.beeps, ref.noise_only);
  sim::DriftSessionState wild = f.neutral_state();
  wild.mic_gains.assign(f.geometry.num_mics(), 1.0);
  wild.mic_gains[0] = 3.0;
  wild.mic_gains[1] = 0.3;
  const eval::CaptureBatch b = f.background(1, wild);
  const core::DriftReport r =
      monitor.observe(b.beeps, b.noise_only, /*occupied=*/false);
  EXPECT_NE(r.verdict, core::DriftVerdict::kConfirmed) << r.describe();
}

TEST(DriftManager, BackgroundScanQuarantinesAndRecalibrationRecoversPhysics) {
  const Fixture f;
  core::DriftManager manager(f.pipeline);
  const eval::CaptureBatch ref = f.background(0);
  manager.set_reference(ref.beeps, ref.noise_only);

  sim::DriftSessionState drift = f.neutral_state();
  drift.temperature_c = 31.0;
  drift.sound_speed_scale = array::speed_of_sound_at(units::Celsius{31.0}) /
                            array::speed_of_sound_at(units::Celsius{20.0});
  drift.mic_gains = {1.25, 0.8, 1.2, 0.85, 1.15, 0.9};
  manager.set_probe_source([&](std::size_t attempt) {
    const eval::CaptureBatch b =
        f.background(100 + static_cast<int>(attempt), drift);
    return core::CaptureAttempt{b.beeps, b.noise_only};
  });

  for (int i = 0; i < 10 && !manager.quarantined(); ++i)
    manager.background_scan();
  ASSERT_TRUE(manager.quarantined()) << manager.last_report().describe();

  ASSERT_EQ(manager.recalibrate(), core::RecalibrationOutcome::kRecalibrated)
      << manager.last_report().describe();
  EXPECT_FALSE(manager.quarantined());
  EXPECT_EQ(manager.recalibration_count(), 1u);

  const core::DriftCorrections& corr = manager.corrections();
  ASSERT_TRUE(corr.active);
  // The true speed of sound in the drifted room.
  const double expected =
      f.config.speed_of_sound.value() * drift.sound_speed_scale;
  EXPECT_NEAR(corr.speed_of_sound, expected, 2.0) << corr.describe();
  EXPECT_NEAR(corr.temperature_c, 31.0, 4.0) << corr.describe();
  EXPECT_DOUBLE_EQ(manager.pipeline().config().speed_of_sound.value(),
                   corr.speed_of_sound);
  // Gain corrections invert the drifted mic gains.
  ASSERT_EQ(corr.channel_gains.size(), drift.mic_gains.size());
  for (std::size_t c = 0; c < corr.channel_gains.size(); ++c)
    EXPECT_NEAR(corr.channel_gains[c] * drift.mic_gains[c], 1.0, 0.15)
        << "channel " << c;

  // Detection has been rebased onto the drifted room: the same captures no
  // longer look like drift.
  const eval::CaptureBatch again = f.background(200, drift);
  const core::DriftReport after =
      manager.observe(again.beeps, again.noise_only, /*occupied=*/false);
  EXPECT_EQ(after.verdict, core::DriftVerdict::kNone) << after.describe();
}

TEST(DriftManager, RecalibrationWithoutProbeSourceFails) {
  const Fixture f;
  core::DriftManager manager(f.pipeline);
  const eval::CaptureBatch ref = f.background(0);
  manager.set_reference(ref.beeps, ref.noise_only);
  EXPECT_EQ(manager.recalibrate(),
            core::RecalibrationOutcome::kNoProbeSource);
}

TEST(DriftManager, OccupiedProbesAreNotEmptyRoom) {
  // Every probe has a person in it: recalibration must refuse to refresh
  // the background reference from them.
  const Fixture f;
  const std::vector<eval::SimulatedUser> users =
      eval::make_users(eval::make_roster(), 7);
  core::DriftManager manager(f.pipeline);
  const eval::CaptureBatch ref = f.background(0);
  manager.set_reference(ref.beeps, ref.noise_only);
  manager.set_probe_source([&](std::size_t attempt) {
    eval::CollectionConditions c = f.cond;
    c.repetition = 300 + static_cast<int>(attempt);
    const eval::CaptureBatch b = f.collector.collect(users[0], c, 3);
    return core::CaptureAttempt{b.beeps, b.noise_only};
  });
  EXPECT_EQ(manager.recalibrate(), core::RecalibrationOutcome::kNoEmptyRoom);
  EXPECT_EQ(manager.recalibration_count(), 0u);
}

TEST(DriftManager, ImplausibleGainShiftDiverges) {
  const Fixture f;
  core::DriftManager manager(f.pipeline);
  const eval::CaptureBatch ref = f.background(0);
  manager.set_reference(ref.beeps, ref.noise_only);
  // A 20x channel collapse is broken hardware, not drift to calibrate out.
  sim::DriftSessionState broken = f.neutral_state();
  broken.mic_gains.assign(f.geometry.num_mics(), 1.0);
  broken.mic_gains[2] = 0.05;
  manager.set_probe_source([&](std::size_t attempt) {
    const eval::CaptureBatch b =
        f.background(400 + static_cast<int>(attempt), broken);
    return core::CaptureAttempt{b.beeps, b.noise_only};
  });
  EXPECT_EQ(manager.recalibrate(), core::RecalibrationOutcome::kDiverged);
  EXPECT_FALSE(manager.corrections().active);
}

}  // namespace
}  // namespace echoimage
