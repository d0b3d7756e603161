#include "population.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <stdexcept>

#include "array/geometry.hpp"
#include "sim/random.hpp"

namespace perfbench {

namespace {

bool has_nonfinite(const echoimage::dsp::Signal& channel) {
  for (const double v : channel)
    if (!std::isfinite(v)) return true;
  return false;
}

core::ProcessedBeeps process_checked(const core::EchoImagePipeline& lane,
                                     const core::CaptureAttempt& capture,
                                     Tracer* tracer) {
  return tracer != nullptr
             ? traced_process(lane, capture, {}, *tracer, 0)
             : lane.process(capture.beeps, capture.noise_only);
}

/// One user's enrollment on one lane: EchoImagePipeline::process and
/// features_batch, or their recomposition under `tracer`.
core::EnrolledUser enroll_user(const core::EchoImagePipeline& lane,
                               const EnrollCaptures& captures,
                               Tracer* tracer) {
  const auto features = [&](const core::CaptureAttempt& capture,
                            bool augment) {
    const core::ProcessedBeeps processed =
        process_checked(lane, capture, tracer);
    if (!processed.gate_passed() || processed.images.empty())
      throw std::runtime_error("enrollment capture of user " +
                               std::to_string(captures.user_id) +
                               " produced no image");
    const double distance_m = processed.distance.valid
                                  ? processed.distance.user_distance_m
                                  : captures.distance_m;
    if (tracer == nullptr)
      return lane.features_batch(processed.images, distance_m, augment);
    std::vector<std::vector<double>> out;
    for (const core::AcousticImage& image : processed.images) {
      {
        auto span = tracer->span("ml.cnn.features", 0);
        out.push_back(lane.features(image));
      }
      if (!augment) continue;
      for (const double to_m : lane.config().augmentation_distances_m) {
        core::AcousticImage synth;
        {
          auto span = tracer->span("core.augment.transform", 0);
          synth = lane.augmenter().transform(image, distance_m, to_m);
        }
        auto span = tracer->span("ml.cnn.features", 0);
        out.push_back(lane.features(synth));
      }
    }
    return out;
  };
  core::EnrolledUser user;
  user.user_id = captures.user_id;
  for (const CapturePtr& visit : captures.visits)
    for (std::vector<double>& f : features(*visit, true))
      user.features.push_back(std::move(f));
  user.calibration_features = features(*captures.calibration, false);
  return user;
}

}  // namespace

Roster make_roster(const core::SystemConfig& config) {
  Roster roster;
  roster.users = eval::make_users(eval::make_roster(), kPopulationSeed);
  echoimage::sim::CaptureConfig capture;
  capture.sample_rate = config.sample_rate;
  capture.chirp = config.chirp;
  roster.collector = std::make_unique<eval::DataCollector>(
      capture, echoimage::array::make_respeaker_array(), kPopulationSeed);
  return roster;
}

std::vector<CapturePtr> render(const Roster& roster,
                               const std::vector<CaptureSpec>& specs) {
  std::vector<CapturePtr> out(specs.size());
  run_parallel(specs.size(), [&](std::size_t i) {
    const CaptureSpec& spec = specs[i];
    eval::CaptureBatch batch = roster.collector->collect(
        roster.users.at(spec.user_index), spec.conditions, spec.beeps);
    out[i] = std::make_shared<const core::CaptureAttempt>(core::CaptureAttempt{
        std::move(batch.beeps), std::move(batch.noise_only)});
  });
  // The renders sit scattered among the rendering threads' freed scratch.
  // Copied once on this thread, the worker heaps empty out entirely, so
  // restart_rss_watermark leaves the same resident set on every run.
  for (CapturePtr& capture : out)
    capture = std::make_shared<const core::CaptureAttempt>(*capture);
  return out;
}

std::vector<CaptureSpec> request_specs(
    std::size_t count, const std::vector<std::size_t>& genuine_users,
    const std::vector<std::size_t>& impostor_users, std::size_t beeps) {
  std::vector<CaptureSpec> specs(count);
  for (std::size_t i = 0; i < count; ++i) {
    echoimage::sim::Rng rng(
        echoimage::sim::mix_seed(kPopulationSeed, 0x5EC0 + i));
    CaptureSpec& spec = specs[i];
    spec.genuine = i % 5 < 3;
    const std::vector<std::size_t>& pool =
        spec.genuine ? genuine_users : impostor_users;
    spec.user_index = pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(pool.size()) - 1))];
    spec.conditions.session = rng.uniform_int(1, 3);
    spec.conditions.repetition = 100 + static_cast<int>(i);
    spec.conditions.distance_m = rng.uniform(0.6, 1.5);
    spec.beeps = beeps;
  }
  return specs;
}

std::vector<Request> make_requests(const Roster& roster,
                                   const std::vector<CaptureSpec>& specs,
                                   const std::vector<std::size_t>& order) {
  const std::vector<CapturePtr> captures = render(roster, specs);
  std::vector<Request> requests(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::size_t p = order[i];
    requests[i] = Request{i, specs[p].genuine,
                          roster.users.at(specs[p].user_index).subject.user_id,
                          captures[p]};
  }
  return requests;
}

std::vector<EnrollCaptures> enrollment_captures(
    const Roster& roster, const std::vector<std::size_t>& users,
    std::size_t visits, std::size_t visit_beeps,
    std::size_t calibration_beeps) {
  // Per user: the visits (repetitions 0, 3, 6, ...), then the calibration
  // visit (repetition 2), like the serve scenario's enrollment.
  std::vector<CaptureSpec> specs;
  for (const std::size_t u : users) {
    for (std::size_t v = 0; v <= visits; ++v) {
      CaptureSpec spec;
      spec.user_index = u;
      spec.genuine = true;
      spec.conditions.repetition = v < visits ? 3 * static_cast<int>(v) : 2;
      spec.beeps = v < visits ? visit_beeps : calibration_beeps;
      specs.push_back(spec);
    }
  }
  const std::vector<CapturePtr> captures = render(roster, specs);
  std::vector<EnrollCaptures> out;
  for (std::size_t i = 0; i < users.size(); ++i) {
    const std::size_t first = i * (visits + 1);
    EnrollCaptures e;
    e.user_id = roster.users.at(users[i]).subject.user_id;
    e.distance_m = specs[first].conditions.distance_m;
    e.visits.assign(captures.begin() + static_cast<std::ptrdiff_t>(first),
                    captures.begin() + static_cast<std::ptrdiff_t>(first + visits));
    e.calibration = captures[first + visits];
    out.push_back(std::move(e));
  }
  return out;
}

Setup build_lanes(const std::vector<core::SystemConfig>& configs,
                  const std::vector<EnrollCaptures>& users, Tracer* tracer) {
  Setup setup;
  const double t0 = now_s();
  std::optional<Tracer::Scope> root;
  if (tracer != nullptr) root.emplace(*tracer, "setup", 0);
  const echoimage::array::ArrayGeometry geometry =
      echoimage::array::make_respeaker_array();
  for (const core::SystemConfig& config : configs) {
    setup.lanes.push_back(
        Lane{std::make_unique<core::EchoImagePipeline>(config, geometry), {}});
    // Untraced numbers are the deployed configuration: no obs bundle.
    if (setup.lanes.back().pipeline->observability() != nullptr)
      throw std::runtime_error("observability must stay off");
  }
  std::vector<std::vector<core::EnrolledUser>> enrolled(configs.size());
  for (const EnrollCaptures& user : users) {
    const double user_t0 = now_s();
    for (std::size_t l = 0; l < configs.size(); ++l)
      enrolled[l].push_back(enroll_user(*setup.lanes[l].pipeline, user, tracer));
    setup.user_s.push_back(now_s() - user_t0);
  }
  const double train_t0 = now_s();
  for (std::size_t l = 0; l < configs.size(); ++l) {
    Lane& lane = setup.lanes[l];
    if (tracer == nullptr) {
      lane.auth = lane.pipeline->enroll(enrolled[l]);
    } else {
      auto span = tracer->span("core.authenticator.train", 0);
      lane.auth = core::Authenticator::train(
          enrolled[l], lane.pipeline->config().authenticator);
    }
  }
  root.reset();
  const double t1 = now_s();
  setup.setup_s = t1 - t0;
  setup.train_s = t1 - train_t0;
  return setup;
}

double SetupTimes::enroll_commit_s() const {
  return *std::min_element(repeat_enroll_commit_s.begin(),
                           repeat_enroll_commit_s.end());
}

Setup build_lanes_repeated(const std::vector<core::SystemConfig>& configs,
                           const std::vector<EnrollCaptures>& users,
                           int repeats, SetupTimes& times,
                           const CpuRotation* rotation) {
  Setup setup;
  for (int r = 0; r < repeats; ++r) {
    setup = Setup{};
    if (rotation != nullptr) rotation->pin(static_cast<std::size_t>(r));
    setup = build_lanes(configs, users, nullptr);
    times.setup_s.push_back(setup.setup_s);
    times.repeat_enroll_commit_s.push_back(median(setup.user_s) +
                                           setup.train_s);
  }
  return setup;
}

core::ProcessedBeeps traced_process(const core::EchoImagePipeline& lane,
                                    const core::CaptureAttempt& capture,
                                    const core::DeadlineProbe& deadline,
                                    Tracer& tracer, std::uint64_t request) {
  auto process_span = tracer.span("core.pipeline.process", request);
  const core::SystemConfig& config = lane.config();
  if (!config.health_gate)
    throw std::runtime_error("recomposition expects the health gate on");
  {
    auto span = tracer.span("core.pipeline.validate", request);
    lane.validate_capture(capture.beeps, capture.noise_only);
  }
  const std::size_t mics = lane.geometry().num_mics();
  core::ProcessedBeeps out;
  out.active_mask.assign(mics, true);
  {
    auto span = tracer.span("core.health.assess", request);
    out.health = core::assess_capture(capture.beeps, config.health);
  }
  const core::MultiChannelSignal& noise = capture.noise_only;
  for (std::size_t c = 0; c < noise.num_channels(); ++c) {
    if (out.health.active_mask[c] && has_nonfinite(noise.channels[c])) {
      out.health.active_mask[c] = false;
      out.health.channels[c].status = core::ChannelStatus::kDead;
      out.health.channels[c].issues.push_back("noise capture non-finite");
    }
  }
  out.health.num_active =
      echoimage::array::count_active(out.health.active_mask);
  if (out.health.num_active < config.health.min_active_channels)
    out.health.verdict = core::CaptureVerdict::kFailed;
  out.active_mask = out.health.active_mask;
  out.dropped_channels = mics - out.health.num_active;
  if (!out.health.usable()) return out;
  if (out.dropped_channels > 0)
    throw std::runtime_error(
        "recomposition covers captures with every channel healthy");

  {
    auto span = tracer.span("core.distance.estimate", request);
    out.distance = lane.distance_estimator().estimate(capture.beeps, noise);
  }
  if (!out.distance.valid) return out;
  const echoimage::units::Meters plane{
      out.distance.user_distance_centroid_m > 0.0
          ? out.distance.user_distance_centroid_m
          : out.distance.user_distance_m};
  for (const core::MultiChannelSignal& beep : capture.beeps) {
    if (deadline && deadline()) {
      out.deadline_expired = true;
      return out;
    }
    auto span = tracer.span("core.imaging.image", request);
    out.images.push_back(core::AcousticImage{lane.imager().construct_bands(
        beep, plane, out.distance.tau_direct_s, noise,
        out.distance.tau_echo_centroid_s)});
  }
  return out;
}

core::AuthDecision traced_authenticate(const core::EchoImagePipeline& lane,
                                       const core::Authenticator& auth,
                                       const CapturePtr& capture,
                                       std::size_t max_attempts,
                                       const core::DeadlineProbe& deadline,
                                       Tracer& tracer, std::uint64_t request,
                                       std::size_t& attempts) {
  if (capture == nullptr || capture->beeps.empty())
    throw std::runtime_error("request without a capture");
  core::ProcessedBeeps p;
  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    if (deadline && deadline())
      return core::AuthDecision::abstain(core::AbstainReason::kDeadline);
    ++attempts;
    p = traced_process(lane, *capture, deadline, tracer, request);
    if (p.deadline_expired)
      return core::AuthDecision::abstain(core::AbstainReason::kDeadline);
    if (p.gate_passed()) break;
    if (attempt + 1 == max_attempts)
      return core::AuthDecision::abstain(core::AbstainReason::kCapture);
  }
  if (!p.distance.valid || p.images.empty()) return core::AuthDecision{};
  // Majority vote across the beeps; -1 collects rejections and wins ties.
  std::map<int, std::size_t> votes;
  std::map<int, double> score_sums;
  for (const core::AcousticImage& image : p.images) {
    std::vector<double> feature;
    {
      auto span = tracer.span("ml.cnn.features", request);
      feature = lane.features(image);
    }
    core::AuthDecision d;
    {
      auto span = tracer.span("core.authenticator.score", request);
      d = auth.authenticate(feature);
    }
    const int id = d.accepted ? d.user_id : -1;
    ++votes[id];
    score_sums[id] += d.svdd_score;
  }
  int best_id = -1;
  std::size_t best_count = 0;
  for (const auto& [id, count] : votes) {
    if (count > best_count) {
      best_id = id;
      best_count = count;
    }
  }
  core::AuthDecision out;
  out.svdd_score = score_sums[best_id] / static_cast<double>(best_count);
  out.accepted = best_id >= 0;
  out.user_id = best_id;
  out.outcome =
      out.accepted ? core::AuthOutcome::kAccepted : core::AuthOutcome::kRejected;
  return out;
}

void Quality::add(const Request& request, const core::AuthDecision& decision) {
  const bool accepted = decision.outcome == core::AuthOutcome::kAccepted;
  if (request.genuine) {
    ++genuine;
    if (accepted && decision.user_id == request.user_id) ++genuine_accepted;
  } else {
    ++impostor;
    if (accepted) ++impostor_accepted;
  }
}

}  // namespace perfbench
