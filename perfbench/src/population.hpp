// Inputs and recomposed paths shared by the two 1:1 workloads
// (serve_default, verify_paper).
//
// Inputs: the roster bodies, the enrollment captures and the request
// captures are rendered by the simulator before anything is timed. Every
// request is its own render (own user, session, repetition and distance),
// so no capture is replayed and caches see only the sharing real traffic
// has: the beeps of one capture share a plane, captures do not.
//
// Recomposition: the traced pass replays CaptureSupervisor::authenticate
// and EchoImagePipeline::process / features_batch from their public parts
// (assess_capture, DistanceEstimator::estimate, construct_bands, features,
// DataAugmenter::transform, Authenticator::train / authenticate), with a
// span around each call. Its decisions must equal the untraced ones.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/pipeline.hpp"
#include "core/supervisor.hpp"
#include "eval/dataset.hpp"
#include "eval/roster.hpp"
#include "harness.hpp"

namespace perfbench {

namespace core = echoimage::core;
namespace eval = echoimage::eval;

using CapturePtr = std::shared_ptr<const core::CaptureAttempt>;

/// Seed of the roster bodies and of the 1:1 request population. Fixed, so
/// genuine/impostor accept rates are measured on the same evaluation set
/// every run; the run's --seed orders the requests.
inline constexpr std::uint64_t kPopulationSeed = 0xEC401A6E;

/// One capture to render: who stands where.
struct CaptureSpec {
  std::size_t user_index = 0;  ///< into the roster users
  bool genuine = false;        ///< the user is enrolled
  eval::CollectionConditions conditions;
  std::size_t beeps = 1;
};

/// One authentication request of a 1:1 workload.
struct Request {
  std::uint64_t id = 0;
  bool genuine = false;
  int user_id = 0;  ///< roster id of the person in front of the device
  CapturePtr capture;
};

/// The enrollment material of one user.
struct EnrollCaptures {
  int user_id = 0;
  double distance_m = 0.0;
  std::vector<CapturePtr> visits;  ///< augmented at enrollment
  CapturePtr calibration;  ///< never augmented; calibrates the SVDD
};

/// The roster (paper Table I) with bodies from kPopulationSeed, and a
/// collector that renders them in the lab environment.
struct Roster {
  std::vector<eval::SimulatedUser> users;
  std::unique_ptr<eval::DataCollector> collector;
};
[[nodiscard]] Roster make_roster(const core::SystemConfig& config);

/// Renders every spec on up to four threads (order preserved), then copies
/// the captures on the calling thread.
[[nodiscard]] std::vector<CapturePtr> render(
    const Roster& roster, const std::vector<CaptureSpec>& specs);

/// `count` request specs: `genuine_users` enrolled roster indices and
/// `impostor_users` never-enrolled ones, mixed 3:2; each request draws its
/// own session, repetition and distance in [0.6, 1.5] m from
/// kPopulationSeed and its index.
[[nodiscard]] std::vector<CaptureSpec> request_specs(
    std::size_t count, const std::vector<std::size_t>& genuine_users,
    const std::vector<std::size_t>& impostor_users, std::size_t beeps);

/// Renders `specs` and issues specs[order[i]] as request i.
[[nodiscard]] std::vector<Request> make_requests(
    const Roster& roster, const std::vector<CaptureSpec>& specs,
    const std::vector<std::size_t>& order);

/// Renders the enrollment captures of `users` at 0.7 m: `visits` visits
/// of `visit_beeps` beeps and one calibration visit.
[[nodiscard]] std::vector<EnrollCaptures> enrollment_captures(
    const Roster& roster, const std::vector<std::size_t>& users,
    std::size_t visits, std::size_t visit_beeps,
    std::size_t calibration_beeps);

/// A pipeline with the authenticator enrolled on it.
struct Lane {
  std::unique_ptr<core::EchoImagePipeline> pipeline;
  core::Authenticator auth;
};

/// Builds and enrolls one lane per config: pipeline construction, then per
/// user process -> features_batch (augmented visit, plain calibration),
/// then Authenticator::train. With a tracer every step is recomposed from
/// public calls under a "setup" root span.
struct Setup {
  std::vector<Lane> lanes;
  double setup_s = 0.0;
  std::vector<double> user_s;  ///< each user's enrollment, every lane
  double train_s = 0.0;        ///< training every lane's authenticator
};
[[nodiscard]] Setup build_lanes(const std::vector<core::SystemConfig>& configs,
                                const std::vector<EnrollCaptures>& users,
                                Tracer* tracer);

/// Set-up timings over repeated untraced set-ups.
struct SetupTimes {
  std::vector<double> setup_s;
  /// Per repeat: its median user enrollment plus its training.
  std::vector<double> repeat_enroll_commit_s;
  /// The cost of enrolling one more user: the fastest repeat's figure. With
  /// a rotation each repeat ran on its own CPU, so this is the figure a
  /// slow CPU of a shared host moves least.
  [[nodiscard]] double enroll_commit_s() const;
};

/// build_lanes `repeats` times without a tracer, each repeat after the
/// previous lanes are gone; keeps the last set-up. With a `rotation`, repeat
/// r runs pinned to CPU r (for single-threaded lanes only: a lane's worker
/// threads would inherit the pin).
[[nodiscard]] Setup build_lanes_repeated(
    const std::vector<core::SystemConfig>& configs,
    const std::vector<EnrollCaptures>& users, int repeats, SetupTimes& times,
    const CpuRotation* rotation = nullptr);

/// EchoImagePipeline::process recomposed from public calls. Covers the
/// all-channels-healthy path (the inputs are clean renders); a capture the
/// health gate degrades throws.
[[nodiscard]] core::ProcessedBeeps traced_process(
    const core::EchoImagePipeline& lane, const core::CaptureAttempt& capture,
    const core::DeadlineProbe& deadline, Tracer& tracer,
    std::uint64_t request);

/// CaptureSupervisor::authenticate recomposed (no drift manager): the
/// attempt loop with its deadline checks, traced_process, then features and
/// Authenticator::authenticate per beep image and the majority vote.
[[nodiscard]] core::AuthDecision traced_authenticate(
    const core::EchoImagePipeline& lane, const core::Authenticator& auth,
    const CapturePtr& capture, std::size_t max_attempts,
    const core::DeadlineProbe& deadline, Tracer& tracer,
    std::uint64_t request, std::size_t& attempts);

/// Accept counts of a set of decided requests.
struct Quality {
  std::size_t genuine = 0;
  std::size_t genuine_accepted = 0;  ///< accepted as the right user
  std::size_t impostor = 0;
  std::size_t impostor_accepted = 0;  ///< accepted as anyone
  void add(const Request& request, const core::AuthDecision& decision);
};

}  // namespace perfbench
