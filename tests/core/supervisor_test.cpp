#include "core/supervisor.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "eval/dataset.hpp"
#include "eval/experiment.hpp"
#include "sim/faults.hpp"

namespace echoimage::core {
namespace {

struct Fixture {
  array::ArrayGeometry geometry = array::make_respeaker_array();
  SystemConfig config = eval::default_system_config();
  EchoImagePipeline pipeline{config, geometry};
  std::vector<eval::SimulatedUser> users =
      eval::make_users(eval::make_roster(), 3);
  eval::DataCollector collector{sim::CaptureConfig{}, geometry, 3};

  [[nodiscard]] eval::CaptureBatch capture(int user = 0, int rep = 0) const {
    eval::CollectionConditions cond;
    cond.repetition = rep;
    return collector.collect(users[static_cast<std::size_t>(user)], cond, 4);
  }
};

// Kills four of six mics: below min_active_channels, so the gate fails.
void break_array(eval::CaptureBatch& batch) {
  sim::FaultPlan plan;
  for (const int c : {0, 1, 2, 3})
    plan.faults.push_back({sim::FaultKind::kDeadChannel, c, 1.0, 0.0});
  sim::apply_plan(batch.beeps, batch.noise_only, plan);
}

TEST(CaptureSupervisor, ConfigValidation) {
  const Fixture f;
  CaptureSupervisorConfig bad;
  bad.max_attempts = 0;
  EXPECT_THROW(CaptureSupervisor(f.pipeline, bad), std::invalid_argument);
  bad = CaptureSupervisorConfig{};
  bad.initial_backoff_s = -1.0;
  EXPECT_THROW(CaptureSupervisor(f.pipeline, bad), std::invalid_argument);
  bad = CaptureSupervisorConfig{};
  bad.backoff_multiplier = 0.5;
  EXPECT_THROW(CaptureSupervisor(f.pipeline, bad), std::invalid_argument);
  bad = CaptureSupervisorConfig{};
  bad.backoff_jitter = 1.0;  // full-range jitter could zero a backoff step
  EXPECT_THROW(CaptureSupervisor(f.pipeline, bad), std::invalid_argument);
  bad = CaptureSupervisorConfig{};
  bad.backoff_jitter = -0.1;
  EXPECT_THROW(CaptureSupervisor(f.pipeline, bad), std::invalid_argument);
}

TEST(CaptureSupervisor, FirstCleanCaptureNeedsNoRetry) {
  const Fixture f;
  const CaptureSupervisor sup(f.pipeline);
  const eval::CaptureBatch batch = f.capture();
  const SupervisedCapture got = sup.acquire([&](std::size_t) {
    return CaptureAttempt{batch.beeps, batch.noise_only};
  });
  EXPECT_FALSE(got.abstained);
  EXPECT_EQ(got.attempts, 1u);
  EXPECT_EQ(got.total_backoff_s, 0.0);
  EXPECT_TRUE(got.processed.gate_passed());
  EXPECT_TRUE(got.processed.distance.valid);
}

TEST(CaptureSupervisor, RetriesWithExponentialBackoffUntilHealthy) {
  const Fixture f;
  CaptureSupervisorConfig cfg;
  cfg.max_attempts = 3;
  cfg.initial_backoff_s = 0.25;
  cfg.backoff_multiplier = 2.0;
  const CaptureSupervisor sup(f.pipeline, cfg);
  const eval::CaptureBatch clean = f.capture();
  std::size_t calls = 0;
  // The array is broken for two attempts (a wedged driver), then recovers.
  const SupervisedCapture got = sup.acquire([&](std::size_t attempt) {
    ++calls;
    eval::CaptureBatch batch = clean;
    if (attempt < 2) break_array(batch);
    return CaptureAttempt{batch.beeps, batch.noise_only};
  });
  EXPECT_EQ(calls, 3u);
  EXPECT_FALSE(got.abstained);
  EXPECT_EQ(got.attempts, 3u);
  EXPECT_DOUBLE_EQ(got.total_backoff_s, 0.25 + 0.5);
  ASSERT_EQ(got.attempt_verdicts.size(), 3u);
  EXPECT_EQ(got.attempt_verdicts[0], CaptureVerdict::kFailed);
  EXPECT_EQ(got.attempt_verdicts[1], CaptureVerdict::kFailed);
  EXPECT_NE(got.attempt_verdicts[2], CaptureVerdict::kFailed);
  EXPECT_TRUE(got.processed.distance.valid);
}

TEST(CaptureSupervisor, JitteredBackoffStaysInsideTheEnvelopeDeterministically) {
  // Jitter desynchronises a fleet of devices retrying in lockstep, but it
  // must stay bounded (the caller budgets worst-case latency from the
  // nominal schedule) and replayable (same seed, same trace).
  const Fixture f;
  CaptureSupervisorConfig cfg;
  cfg.max_attempts = 4;
  cfg.initial_backoff_s = 0.25;
  cfg.backoff_multiplier = 2.0;
  cfg.backoff_jitter = 0.5;
  cfg.jitter_seed = 42;
  const eval::CaptureBatch clean = f.capture();
  const auto broken_source = [&](std::size_t) {
    eval::CaptureBatch batch = clean;
    break_array(batch);
    return CaptureAttempt{batch.beeps, batch.noise_only};
  };
  // Three backoff steps between four attempts: nominal 0.25 + 0.5 + 1.0.
  const double nominal = 1.75;
  const CaptureSupervisor sup(f.pipeline, cfg);
  const SupervisedCapture got = sup.acquire(broken_source);
  EXPECT_TRUE(got.abstained);
  EXPECT_EQ(got.attempts, 4u);
  EXPECT_GE(got.total_backoff_s, nominal * (1.0 - cfg.backoff_jitter));
  EXPECT_LE(got.total_backoff_s, nominal * (1.0 + cfg.backoff_jitter));
  // The jitter is real — the schedule is not the nominal one...
  EXPECT_NE(got.total_backoff_s, nominal);
  // ...and deterministic: an identical supervisor replays it exactly.
  const CaptureSupervisor replay(f.pipeline, cfg);
  EXPECT_DOUBLE_EQ(replay.acquire(broken_source).total_backoff_s,
                   got.total_backoff_s);
  // A different seed walks a different schedule.
  cfg.jitter_seed = 43;
  const CaptureSupervisor other(f.pipeline, cfg);
  EXPECT_NE(other.acquire(broken_source).total_backoff_s,
            got.total_backoff_s);
}

TEST(CaptureSupervisor, AbstainsAfterExhaustingRetries) {
  const Fixture f;
  CaptureSupervisorConfig cfg;
  cfg.max_attempts = 2;
  const CaptureSupervisor sup(f.pipeline, cfg);
  const eval::CaptureBatch clean = f.capture();
  const auto broken_source = [&](std::size_t) {
    eval::CaptureBatch batch = clean;
    break_array(batch);
    return CaptureAttempt{batch.beeps, batch.noise_only};
  };
  const SupervisedCapture got = sup.acquire(broken_source);
  EXPECT_TRUE(got.abstained);
  EXPECT_EQ(got.attempts, 2u);
  EXPECT_NE(got.describe().find("abstained"), std::string::npos);

  // ... and the authentication outcome is an abstention, not a rejection:
  // a broken microphone must never count as evidence against the user.
  EnrolledUser u;
  u.user_id = 1;
  const auto pe = f.pipeline.process(clean.beeps, clean.noise_only);
  ASSERT_TRUE(pe.distance.valid);
  u.features = f.pipeline.features_batch(
      pe.images, pe.distance.user_distance_centroid_m, false);
  const Authenticator auth = f.pipeline.enroll({u});
  const AuthDecision d = sup.authenticate(broken_source, auth);
  EXPECT_EQ(d.outcome, AuthOutcome::kAbstained);
  EXPECT_FALSE(d.accepted);
  EXPECT_EQ(d.user_id, -1);
}

TEST(CaptureSupervisor, BackoffStepFunctionMatchesTheSupervisedSchedule) {
  // The serve layer's fleet model places device re-beeps with
  // backoff_step_s; the schedule it reconstructs must be exactly the one
  // the supervisor reports having waited — same nominal growth, same
  // seeded jitter, step for step.
  const Fixture f;
  CaptureSupervisorConfig cfg;
  cfg.max_attempts = 4;
  cfg.initial_backoff_s = 0.25;
  cfg.backoff_multiplier = 2.0;
  cfg.backoff_jitter = 0.4;
  cfg.jitter_seed = 1234;
  const eval::CaptureBatch clean = f.capture();
  const CaptureSupervisor sup(f.pipeline, cfg);
  const SupervisedCapture got = sup.acquire([&](std::size_t) {
    eval::CaptureBatch batch = clean;
    break_array(batch);
    return CaptureAttempt{batch.beeps, batch.noise_only};
  });
  ASSERT_EQ(got.attempts, 4u);
  double reconstructed = 0.0;
  for (std::size_t step = 1; step < cfg.max_attempts; ++step)
    reconstructed += backoff_step_s(cfg, step);
  EXPECT_DOUBLE_EQ(got.total_backoff_s, reconstructed);
}

TEST(CaptureSupervisor, BackoffHistogramObservesOnlyRetriedAcquisitions) {
  const array::ArrayGeometry geometry = array::make_respeaker_array();
  SystemConfig config = eval::default_system_config();
  config.observability.enabled = true;
  const EchoImagePipeline pipeline{config, geometry};
  ASSERT_NE(pipeline.observability(), nullptr);
  const auto& hist = pipeline.observability()->metrics().histogram(
      "supervisor.backoff_s", {0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0});

  const Fixture f;
  const eval::CaptureBatch clean = f.capture();
  CaptureSupervisorConfig cfg;
  cfg.max_attempts = 2;
  const CaptureSupervisor sup(pipeline, cfg);
  // A first-try success has no backoff to report.
  (void)sup.acquire([&](std::size_t) {
    return CaptureAttempt{clean.beeps, clean.noise_only};
  });
  EXPECT_EQ(hist.count(), 0u);
  // A retried acquisition lands its total backoff in the histogram.
  (void)sup.acquire([&](std::size_t) {
    eval::CaptureBatch batch = clean;
    break_array(batch);
    return CaptureAttempt{batch.beeps, batch.noise_only};
  });
  EXPECT_EQ(hist.count(), 1u);
}

TEST(CaptureSupervisor, ExpiredDeadlineAbstainsWithDeadlineReason) {
  const Fixture f;
  const eval::CaptureBatch clean = f.capture();
  const auto pe = f.pipeline.process(clean.beeps, clean.noise_only);
  ASSERT_TRUE(pe.distance.valid);
  EnrolledUser u;
  u.user_id = 1;
  u.features = f.pipeline.features_batch(
      pe.images, pe.distance.user_distance_centroid_m, false);
  const Authenticator auth = f.pipeline.enroll({u});

  const CaptureSupervisor sup(f.pipeline);
  std::size_t calls = 0;
  const AuthDecision d = sup.authenticate(
      [&](std::size_t) {
        ++calls;
        return CaptureAttempt{clean.beeps, clean.noise_only};
      },
      auth, /*deadline=*/[] { return true; });
  // The budget was gone before the first beep: no capture is attempted,
  // and the answer is a *deadline* abstention — late is never a reject.
  EXPECT_EQ(calls, 0u);
  EXPECT_EQ(d.outcome, AuthOutcome::kAbstained);
  EXPECT_EQ(d.abstain_reason, AbstainReason::kDeadline);
  EXPECT_FALSE(d.accepted);
}

TEST(CaptureSupervisor, DeadlineExpiringMidCaptureAbstainsAndNeverRejects) {
  // Probes that hold for their first one or two polls and have expired
  // from then on: the supervisor's own poll, the pipeline's poll before the
  // capture context and its poll after the imaging pass each see a
  // different answer. Whichever poll first sees the expiry, the outcome is
  // a deadline abstention, never a rejection.
  const Fixture f;
  const eval::CaptureBatch clean = f.capture();
  const auto pe = f.pipeline.process(clean.beeps, clean.noise_only);
  ASSERT_TRUE(pe.distance.valid);
  EnrolledUser u;
  u.user_id = 1;
  u.features = f.pipeline.features_batch(
      pe.images, pe.distance.user_distance_centroid_m, false);
  const Authenticator auth = f.pipeline.enroll({u});

  const CaptureSupervisor sup(f.pipeline);
  for (const std::size_t holds : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE(::testing::Message() << "probe holds for " << holds
                                      << " poll(s)");
    std::size_t polls = 0;
    std::size_t calls = 0;
    const AuthDecision d = sup.authenticate(
        [&](std::size_t) {
          ++calls;
          return CaptureAttempt{clean.beeps, clean.noise_only};
        },
        auth, [&polls, holds] { return polls++ >= holds; });
    EXPECT_EQ(calls, 1u);
    EXPECT_EQ(d.outcome, AuthOutcome::kAbstained);
    EXPECT_EQ(d.abstain_reason, AbstainReason::kDeadline);
    EXPECT_FALSE(d.accepted);
  }
}

TEST(CaptureSupervisor, RetryIsTransparentToAuthentication) {
  // A transient gate failure followed by a clean capture must yield the
  // same decision as the clean capture alone.
  const Fixture f;
  const eval::CaptureBatch enroll_batch = f.capture(0, 0);
  const eval::CaptureBatch probe = f.capture(0, 1);
  const auto pe = f.pipeline.process(enroll_batch.beeps,
                                     enroll_batch.noise_only);
  ASSERT_TRUE(pe.distance.valid);
  EnrolledUser u;
  u.user_id = 7;
  u.features = f.pipeline.features_batch(
      pe.images, pe.distance.user_distance_centroid_m, false);
  const Authenticator auth = f.pipeline.enroll({u});

  const CaptureSupervisor sup(f.pipeline);
  const AuthDecision direct = sup.authenticate(
      [&](std::size_t) {
        return CaptureAttempt{probe.beeps, probe.noise_only};
      },
      auth);
  const AuthDecision retried = sup.authenticate(
      [&](std::size_t attempt) {
        eval::CaptureBatch batch = probe;
        if (attempt == 0) break_array(batch);
        return CaptureAttempt{batch.beeps, batch.noise_only};
      },
      auth);
  EXPECT_NE(direct.outcome, AuthOutcome::kAbstained);
  EXPECT_EQ(retried.outcome, direct.outcome);
  EXPECT_EQ(retried.user_id, direct.user_id);
  EXPECT_DOUBLE_EQ(retried.svdd_score, direct.svdd_score);
}

TEST(CaptureSupervisor, SharedSourceMatchesValueSourceWithoutCopying) {
  // The serving layer replays queued frames through the zero-copy
  // SharedCaptureSource entry point; the decision must be identical to
  // the by-value path, and the supervisor must read through the shared
  // capture rather than duplicating it (use_count stays at the caller's).
  const Fixture f;
  const eval::CaptureBatch enroll_batch = f.capture(0, 0);
  const eval::CaptureBatch probe = f.capture(0, 1);
  const auto pe = f.pipeline.process(enroll_batch.beeps,
                                     enroll_batch.noise_only);
  ASSERT_TRUE(pe.distance.valid);
  EnrolledUser u;
  u.user_id = 7;
  u.features = f.pipeline.features_batch(
      pe.images, pe.distance.user_distance_centroid_m, false);
  const Authenticator auth = f.pipeline.enroll({u});
  const CaptureSupervisor sup(f.pipeline);

  const AuthDecision by_value = sup.authenticate(
      [&](std::size_t) {
        return CaptureAttempt{probe.beeps, probe.noise_only};
      },
      auth);
  const auto shared = std::make_shared<const CaptureAttempt>(
      CaptureAttempt{probe.beeps, probe.noise_only});
  const AuthDecision by_share = sup.authenticate(
      SharedCaptureSource([&](std::size_t) { return shared; }), auth);
  EXPECT_EQ(by_share.outcome, by_value.outcome);
  EXPECT_EQ(by_share.user_id, by_value.user_id);
  EXPECT_DOUBLE_EQ(by_share.svdd_score, by_value.svdd_score);
  // Only the caller and the source lambda's return slot ever owned it.
  EXPECT_EQ(shared.use_count(), 1);

  // A null shared capture is an empty capture: gate fails, abstain — not
  // a crash, and never a reject.
  CaptureSupervisorConfig one_shot;
  one_shot.max_attempts = 1;
  const CaptureSupervisor strict(f.pipeline, one_shot);
  const AuthDecision null_capture = strict.authenticate(
      SharedCaptureSource([](std::size_t) {
        return std::shared_ptr<const CaptureAttempt>{};
      }),
      auth);
  EXPECT_EQ(null_capture.outcome, AuthOutcome::kAbstained);
}

}  // namespace
}  // namespace echoimage::core
