// End-to-end EchoImage pipeline (paper Fig. 3): captures -> distance
// estimation -> acoustic images -> CNN features -> SVDD + SVM
// authentication, with optional distance-re-projection data augmentation
// at enrollment.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/augment.hpp"
#include "core/authenticator.hpp"
#include "core/distance.hpp"
#include "core/health.hpp"
#include "core/imaging.hpp"
#include "ml/cnn.hpp"
#include "obs/observability.hpp"

namespace echoimage::core {

/// Everything that defines a deployed EchoImage instance.
struct SystemConfig {
  double sample_rate = 48000.0;
  /// Assumed speed of sound, propagated into distance estimation and
  /// imaging by `harmonize` — the single knob a recalibrator turns when
  /// the room temperature has moved the real value (see core/drift.hpp).
  units::MetersPerSecond speed_of_sound = echoimage::array::kSpeedOfSoundMps;
  /// Worker threads for the parallel stages: the imager's pool runs each
  /// capture's imaging pass (front end per beep, band and channel, gate
  /// terms per beep and band, the grid sweep), the per-band CNN and the
  /// augmentation fan-out; the experiment runner fans sessions out on a
  /// pool of its own. 1 = the historical serial behavior, bit for bit;
  /// 0 = one worker per hardware thread.
  /// Results are deterministic for every value (see DESIGN.md, "Threading
  /// model").
  std::size_t num_threads = 1;
  echoimage::dsp::ChirpParams chirp{};
  DistanceEstimatorConfig distance{};
  ImagingConfig imaging{};
  echoimage::ml::VggishFeatureExtractor::Config extractor{};
  AuthenticatorConfig authenticator{};
  /// Distances synthesized per training image when augmentation is on.
  std::vector<double> augmentation_distances_m = {0.6, 0.8, 0.9, 1.0,
                                                  1.1, 1.2, 1.35, 1.5};
  /// Per-channel health thresholds for the capture gate.
  ChannelHealthConfig health{};
  /// Run the channel-health gate inside `process`: dead channels are
  /// masked out of beamforming/imaging and recorded in ProcessedBeeps;
  /// captures with too few healthy channels come back with
  /// CaptureVerdict::kFailed instead of garbage images. When off, the
  /// pipeline instead rejects non-finite input with an exception.
  bool health_gate = true;
  /// Metrics + tracing (src/obs). Off by default: no bundle is built and
  /// every instrumentation site in the pipeline reduces to a dead branch,
  /// so golden images stay bit-identical and throughput is unchanged.
  obs::ObservabilityConfig observability{};

  /// Propagate the shared fields (sample rate, chirp, band) into the
  /// sub-configs so callers only set them once.
  void harmonize();

  /// One-line-per-field human-readable summary (for logs and benches).
  [[nodiscard]] std::string describe() const;
};

/// Latency-budget probe threaded through the pipeline by the serving
/// layer: returns true once the caller's deadline has passed. `process`
/// polls it at the boundaries of its one imaging pass — before the capture
/// context and after the pass, never inside it — and stops rather than
/// hand back a result nobody will accept. An empty probe means "no
/// deadline". The probe must be cheap and must be monotonic (once expired,
/// stays expired); a VirtualClock-backed probe keeps the early-out
/// bit-stable in the deterministic serve mode.
using DeadlineProbe = std::function<bool()>;

/// Images + metadata produced from one batch of beeps.
struct ProcessedBeeps {
  DistanceEstimate distance;
  std::vector<AcousticImage> images;  ///< one multi-band image per beep
  /// Channel-health report of the capture (verdict kOk with no per-channel
  /// entries when the gate is disabled).
  CaptureHealth health;
  /// Channels that actually fed beamforming/imaging (all-true when the
  /// gate is disabled or every channel is healthy).
  echoimage::array::ChannelMask active_mask;
  std::size_t dropped_channels = 0;  ///< masked-out (dead) channel count
  /// True when a DeadlineProbe fired: `images` is empty, even when the
  /// probe fired only after the imaging pass. The caller must treat the
  /// capture as abstained (AbstainReason::kDeadline), never as a
  /// rejection — a late capture is not evidence either way.
  bool deadline_expired = false;
  /// False when the health gate condemned the capture: distance/images are
  /// absent and the caller should re-beep (see CaptureSupervisor) rather
  /// than score the attempt as a rejection.
  [[nodiscard]] bool gate_passed() const {
    return health.verdict != CaptureVerdict::kFailed;
  }
};

class EchoImagePipeline {
 public:
  explicit EchoImagePipeline(SystemConfig config,
                             echoimage::array::ArrayGeometry geometry);

  [[nodiscard]] const SystemConfig& config() const { return config_; }
  [[nodiscard]] const echoimage::array::ArrayGeometry& geometry() const {
    return geometry_;
  }
  [[nodiscard]] const DistanceEstimator& distance_estimator() const {
    return distance_;
  }
  [[nodiscard]] const AcousticImager& imager() const { return imager_; }
  [[nodiscard]] const DataAugmenter& augmenter() const { return augmenter_; }
  [[nodiscard]] const echoimage::ml::VggishFeatureExtractor& extractor()
      const {
    return extractor_;
  }

  /// The observability bundle (null when SystemConfig::observability is
  /// off). Shared by every instrumented stage of this pipeline, so one
  /// trace/report covers the full auth path.
  [[nodiscard]] const std::shared_ptr<const obs::Observability>& observability()
      const {
    return obs_;
  }

  /// Distance estimation + one imaging pass over every beep
  /// (AcousticImager::construct_capture) against one capture context. Runs
  /// the channel-health gate first (see SystemConfig::health_gate): dead
  /// channels are masked out and recorded in the result; a capture with
  /// fewer than `health.min_active_channels` healthy channels returns with
  /// `gate_passed() == false` and no images. Structurally invalid input
  /// (wrong channel count, ragged/empty channels) throws
  /// std::invalid_argument with a message naming the offending beep.
  /// A non-empty `deadline` is polled before the capture context and once
  /// more after the imaging pass; on expiry at either poll the result
  /// carries `deadline_expired = true` and no images (see DeadlineProbe).
  [[nodiscard]] ProcessedBeeps process(
      const std::vector<MultiChannelSignal>& beeps,
      const MultiChannelSignal& noise_only = {},
      const DeadlineProbe& deadline = {}) const;

  /// The structural validation half of `process`, exposed for callers that
  /// want to fail fast before capture post-processing.
  void validate_capture(const std::vector<MultiChannelSignal>& beeps,
                        const MultiChannelSignal& noise_only = {}) const;

  /// CNN features of one acoustic image: bands extracted on the imager's
  /// pool, concatenated in band order. Must not be called from inside a
  /// region of that pool.
  [[nodiscard]] std::vector<double> features(const AcousticImage& image) const;

  /// Features of a batch of images, optionally augmented with synthesized
  /// copies at the configured distances (used at enrollment).
  [[nodiscard]] std::vector<std::vector<double>> features_batch(
      const std::vector<AcousticImage>& images, double capture_distance_m,
      bool augment) const;

  /// Train the SVDD + SVM authenticator from per-user features.
  [[nodiscard]] Authenticator enroll(
      const std::vector<EnrolledUser>& users) const;

 private:
  SystemConfig config_;
  echoimage::array::ArrayGeometry geometry_;
  DistanceEstimator distance_;
  AcousticImager imager_;
  DataAugmenter augmenter_;
  echoimage::ml::VggishFeatureExtractor extractor_;
  std::shared_ptr<const obs::Observability> obs_;
  const obs::Counter* captures_counter_ = nullptr;
  const obs::Counter* gate_failed_counter_ = nullptr;
  const obs::Counter* gate_degraded_counter_ = nullptr;
  const obs::Counter* distance_invalid_counter_ = nullptr;
  const obs::Histogram* dropped_channels_hist_ = nullptr;
};

}  // namespace echoimage::core
