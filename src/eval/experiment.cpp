#include "eval/experiment.hpp"

#include <cmath>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>

#include "runtime/parallel_for.hpp"

namespace echoimage::eval {

using echoimage::core::EchoImagePipeline;
using echoimage::core::EnrolledUser;
using echoimage::core::ProcessedBeeps;

echoimage::core::SystemConfig default_system_config() {
  echoimage::core::SystemConfig cfg;
  cfg.sample_rate = 48000.0;
  cfg.chirp = echoimage::dsp::ChirpParams{};  // 2-3 kHz, 2 ms
  cfg.imaging.grid_size = 48;
  cfg.imaging.grid_spacing_m = 0.015;
  cfg.extractor.input_size = 48;
  cfg.harmonize();
  return cfg;
}

std::vector<int> ExperimentResult::registered_labels() const {
  std::vector<int> out;
  for (const int l : confusion.labels())
    if (l != kSpooferLabel) out.push_back(l);
  return out;
}

double ExperimentResult::spoofer_detection_rate() const {
  return confusion.per_class_accuracy(kSpooferLabel);
}

ExperimentResult run_authentication_experiment(
    const ExperimentConfig& config) {
  const std::vector<Subject> roster = make_roster();
  if (config.num_registered + config.num_spoofers > roster.size())
    throw std::invalid_argument(
        "experiment: registered + spoofers exceeds the roster size");
  const std::vector<SimulatedUser> users = make_users(roster, config.seed);

  const echoimage::array::ArrayGeometry geometry =
      echoimage::array::make_respeaker_array();
  EchoImagePipeline pipeline(config.system, geometry);

  echoimage::sim::CaptureConfig capture;
  capture.sample_rate = config.system.sample_rate;
  capture.chirp = config.system.chirp;
  const DataCollector collector(capture, geometry, config.seed);

  // Session-level fan-out: users are independent given the shared
  // (immutable) pipeline and collector, so each user's captures render and
  // process on a worker while per-user outcomes land in index-addressed
  // slots; all accumulation into the shared result happens afterwards on
  // the calling thread, in the exact order the serial loop used. One pool
  // serves the whole experiment; with num_threads == 1 no pool exists and
  // the loops below run inline, reproducing the historical serial path bit
  // for bit.
  const std::size_t num_threads =
      echoimage::runtime::resolve_workers(config.system.num_threads);
  std::unique_ptr<echoimage::runtime::ThreadPool> pool;
  if (num_threads > 1)
    pool = std::make_unique<echoimage::runtime::ThreadPool>(num_threads);
  const auto fan_out = [&](std::size_t n, const auto& body) {
    echoimage::runtime::parallel_for(pool.get(), n, body);
  };

  ExperimentResult result;
  double distance_error_sum = 0.0;

  // Process one batch end-to-end: distance estimation + images + features.
  // `detected` reports whether the distance estimator found the user at
  // all; a deployed system rejects the attempt outright when it did not.
  // Pure: every side effect is returned, so batches can run on any worker.
  struct BatchOutcome {
    std::vector<std::vector<double>> features;
    bool detected = false;
    bool valid_estimate = false;
    double abs_distance_error_m = 0.0;
  };
  const auto process_batch = [&](const SimulatedUser& user,
                                 const CollectionConditions& cond,
                                 std::size_t beeps,
                                 bool augment) -> BatchOutcome {
    const CaptureBatch batch = collector.collect(user, cond, beeps);
    const ProcessedBeeps processed =
        pipeline.process(batch.beeps, batch.noise_only);
    if (!processed.distance.valid) return {};
    BatchOutcome out;
    out.valid_estimate = true;
    const double plane_distance = processed.distance.user_distance_m;
    out.abs_distance_error_m =
        std::abs(plane_distance - batch.true_distance_m);
    out.features =
        pipeline.features_batch(processed.images, plane_distance, augment);
    out.detected = true;
    return out;
  };

  // --- Enrollment (paper: session 1 = days 0-2, several visits) ---
  const std::size_t visits = std::max<std::size_t>(1, config.train_visits);
  struct EnrollOutcome {
    EnrolledUser user;
    std::size_t valid_estimates = 0;
    std::size_t invalid_estimates = 0;
    /// Per-batch distance errors in visit order, merged into the global
    /// accumulator one by one so the floating-point summation order matches
    /// the serial loop exactly.
    std::vector<double> distance_errors_m;
  };
  std::vector<EnrollOutcome> enroll_slots(config.num_registered);
  fan_out(config.num_registered, [&](std::size_t i, std::size_t) {
    const SimulatedUser& user = users[i];
    EnrollOutcome& slot = enroll_slots[i];
    EnrolledUser& e = slot.user;
    e.user_id = user.subject.user_id;
    // With augmentation, synthesized samples sit arbitrarily close to
    // their source images, so a stride hold-out underestimates fresh-visit
    // distances; a dedicated (never augmented) calibration visit replaces
    // it. Plain enrollment keeps the stride hold-out, which spans all
    // interleaved visits.
    const bool use_calibration_visit = config.augment;
    for (std::size_t v = 0; v <= (use_calibration_visit ? visits : visits - 1);
         ++v) {
      CollectionConditions cond = config.train_conditions;
      cond.repetition = cond.repetition * 100 + 10 + static_cast<int>(v);
      const bool is_calibration_visit = use_calibration_visit && v == visits;
      BatchOutcome batch = process_batch(
          user, cond,
          is_calibration_visit
              ? std::max<std::size_t>(4, config.train_beeps / visits / 2)
              : std::max<std::size_t>(1, config.train_beeps / visits),
          config.augment && !is_calibration_visit);
      if (batch.valid_estimate) {
        ++slot.valid_estimates;
        slot.distance_errors_m.push_back(batch.abs_distance_error_m);
      } else {
        ++slot.invalid_estimates;
      }
      if (!batch.detected) continue;  // enrollment retries until detected
      std::vector<std::vector<double>> f = std::move(batch.features);
      if (is_calibration_visit) {
        // A short final visit, never augmented, calibrates each user's
        // accept threshold on genuinely fresh captures.
        e.calibration_features = std::move(f);
        continue;
      }
      // Interleave visits so any stride-based hold-out samples every visit.
      if (e.features.empty()) {
        e.features = std::move(f);
      } else {
        std::vector<std::vector<double>> merged;
        merged.reserve(e.features.size() + f.size());
        const std::size_t n = std::max(e.features.size(), f.size());
        for (std::size_t k = 0; k < n; ++k) {
          if (k < e.features.size()) merged.push_back(std::move(e.features[k]));
          if (k < f.size()) merged.push_back(std::move(f[k]));
        }
        e.features = std::move(merged);
      }
    }
  });
  std::vector<EnrolledUser> enrolled;
  for (EnrollOutcome& slot : enroll_slots) {
    result.valid_estimates += slot.valid_estimates;
    result.invalid_estimates += slot.invalid_estimates;
    for (const double err : slot.distance_errors_m) distance_error_sum += err;
    if (slot.user.features.empty()) {
      // The user could not be detected during any enrollment visit (e.g.
      // out of sensing range): they stay unregistered, and their test
      // attempts will be rejected below.
      if (config.verbose) std::cerr << 'x' << std::flush;
      continue;
    }
    enrolled.push_back(std::move(slot.user));
    if (config.verbose) std::cerr << 'E' << std::flush;
  }
  std::optional<echoimage::core::Authenticator> auth;
  if (!enrolled.empty()) auth = pipeline.enroll(enrolled);

  // --- Testing ---
  result.per_condition.resize(config.test_conditions.size());
  const std::size_t num_users = config.num_registered + config.num_spoofers;
  for (std::size_t ci = 0; ci < config.test_conditions.size(); ++ci) {
    const CollectionConditions& cond = config.test_conditions[ci];
    ConfusionMatrix& cm = result.per_condition[ci];
    std::vector<BatchOutcome> outcomes(num_users);
    fan_out(num_users, [&](std::size_t i, std::size_t) {
      outcomes[i] =
          process_batch(users[i], cond, config.test_beeps, /*augment=*/false);
    });
    for (std::size_t i = 0; i < num_users; ++i) {
      const SimulatedUser& user = users[i];
      const bool registered = i < config.num_registered;
      const int actual = registered ? user.subject.user_id : kSpooferLabel;
      BatchOutcome& outcome = outcomes[i];
      if (outcome.valid_estimate) {
        ++result.valid_estimates;
        distance_error_sum += outcome.abs_distance_error_m;
      } else {
        ++result.invalid_estimates;
      }
      if (!outcome.detected || !auth.has_value()) {
        // No user found in front of the device (or nobody could enroll):
        // every beep of the attempt is rejected.
        for (std::size_t b = 0; b < config.test_beeps; ++b) {
          result.confusion.add(actual, kSpooferLabel);
          cm.add(actual, kSpooferLabel);
        }
      } else {
        for (const auto& f : outcome.features) {
          const echoimage::core::AuthDecision d = auth->authenticate(f);
          const int predicted = d.accepted ? d.user_id : kSpooferLabel;
          result.confusion.add(actual, predicted);
          cm.add(actual, predicted);
          (registered ? result.genuine_scores : result.impostor_scores)
              .push_back(d.svdd_score);
        }
      }
      if (config.verbose) std::cerr << '.' << std::flush;
    }
  }
  if (config.verbose) std::cerr << '\n';

  if (result.valid_estimates > 0)
    result.mean_abs_distance_error_m =
        distance_error_sum / static_cast<double>(result.valid_estimates);
  return result;
}

}  // namespace echoimage::eval
