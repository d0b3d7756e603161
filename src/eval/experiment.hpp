// Shared experiment runner: enroll a population, test under conditions,
// and produce the confusion matrix / metrics each figure bench reports.
#pragma once

#include <cstdint>
#include <vector>

#include "core/pipeline.hpp"
#include "eval/dataset.hpp"
#include "eval/metrics.hpp"

namespace echoimage::eval {

struct ExperimentConfig {
  echoimage::core::SystemConfig system{};
  std::uint64_t seed = 42;
  std::size_t num_registered = kDefaultRegisteredCount;
  std::size_t num_spoofers = 8;
  std::size_t train_beeps = 60;
  /// Enrollment visits: the paper's session 1 spans days 0-2, so training
  /// data covers several separate stands in front of the device. The
  /// train_beeps are split evenly across this many visits.
  std::size_t train_visits = 5;
  std::size_t test_beeps = 16;
  bool augment = false;
  CollectionConditions train_conditions{};
  /// Every test condition is applied to every user (registered + spoofer).
  std::vector<CollectionConditions> test_conditions{CollectionConditions{}};
  bool verbose = false;  ///< progress dots on stderr
};

struct ExperimentResult {
  ConfusionMatrix confusion;  ///< merged over all test conditions
  /// One confusion matrix per entry of ExperimentConfig::test_conditions
  /// (same order), so sweeps can share a single enrollment.
  std::vector<ConfusionMatrix> per_condition;
  /// Raw SVDD gate scores of every test beep, split by ground truth, for
  /// ROC/EER analysis of the spoofer gate (undetected attempts score
  /// -infinity-like sentinels are excluded).
  std::vector<double> genuine_scores;
  std::vector<double> impostor_scores;
  /// Distance-estimation quality over all batches that produced a valid
  /// estimate.
  double mean_abs_distance_error_m = 0.0;
  std::size_t valid_estimates = 0;
  std::size_t invalid_estimates = 0;

  /// Macro metrics over registered-user labels only (spoofer row excluded),
  /// matching how the paper reports recall/precision/accuracy.
  [[nodiscard]] std::vector<int> registered_labels() const;
  [[nodiscard]] double spoofer_detection_rate() const;
};

/// Full pipeline experiment: enroll `num_registered` roster users from
/// `train_conditions`, then authenticate every user under every test
/// condition.
[[nodiscard]] ExperimentResult run_authentication_experiment(
    const ExperimentConfig& config);

/// Default system configuration used across benches (paper parameters with
/// the documented image-size scaling).
[[nodiscard]] echoimage::core::SystemConfig default_system_config();

}  // namespace echoimage::eval
