// serve_default: open loop against serve::AuthService in its deterministic
// mode (virtual clock, one scheduler worker, SystemConfig::num_threads = 1).
// Lanes: the default 48x48x5 full lane and a 2-band reduced lane, served by
// serve::make_pipeline_processor, which charges each frame its measured
// wall time on the virtual clock. Per-session Poisson arrivals come in two
// phases at fixed offered rates: `nominal` (about 0.3x the single-worker
// capacity, see kNominalHz) and `overload` (about 1.5x it), each phase on a
// fresh service. The deadline is the service default (1.5 s).
//
// Latency is due time -> decision in virtual time, which leaves out the
// serve layer's own bookkeeping between frames (negligible next to frames
// of ~0.2 s). Which frames the admission ladder degrades or sheds, and in
// which order the scheduler serves queued frames, depends on the measured
// costs; and a lane's decisions depend on which captures it imaged before
// (its weight cache keys plane distances to 1 mm). So the decision
// fingerprint and the accept rates cover only what timing cannot move: the
// full-lane decisions of the nominal requests, in due order, on a lane
// fresh from set-up (see canonical_nominal). Overload decisions are
// counted, never compared.
#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "array/weight_cache.hpp"
#include "eval/experiment.hpp"
#include "population.hpp"
#include "serve/service.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace serve = echoimage::serve;

constexpr std::size_t kBeeps = 4;
constexpr std::size_t kSessions = 8;
/// Offered rates, all sessions together (captures/s). One full-lane frame
/// costs about 0.19 s on a 4-core AVX2 host, so single-worker capacity is
/// about 5.3 captures/s: overload is 1.5x that. Nominal is 0.3x rather
/// than 0.5x: queueing amplifies the host's run-to-run speed noise, and at
/// 2.6/s (2.0/s) the nominal tail spread by 25 % (19 %) across seeds.
constexpr double kNominalHz = 1.6;
constexpr double kOverloadHz = 7.8;
/// Arrivals per phase, per second of --seconds.
constexpr double kNominalPerSecond = 5.0;
constexpr double kOverloadPerSecond = 8.0;
/// Seed of the Poisson arrival schedules. Fixed: with seeded schedules the
/// nominal p50 moved by about 40 % across seeds at these arrival counts.
constexpr std::uint64_t kScheduleSeed = kPopulationSeed ^ 0x5C4ED;
constexpr std::size_t kReducedSubbands = 2;
/// Enrollment per user: visits of kEnrollBeeps beeps, augmented, and one
/// calibration visit.
constexpr std::size_t kEnrollVisits = 2;
constexpr std::size_t kEnrollBeeps = 3;
constexpr std::size_t kCalibrationBeeps = 2;
const std::vector<std::size_t> kEnrolled = {0, 5, 8};
const std::vector<std::size_t> kImpostors = {12, 13, 14, 15, 16, 17, 18, 19};

core::SystemConfig full_config() { return eval::default_system_config(); }

core::SystemConfig reduced_config() {
  core::SystemConfig config = eval::default_system_config();
  config.imaging.num_subbands = kReducedSubbands;
  config.harmonize();
  return config;
}

/// Arrivals of one phase: request, due time and session, in due order.
struct Phase {
  std::vector<const Request*> requests;
  std::vector<double> due_s;
  std::vector<std::uint64_t> session;
};

Phase make_phase(const std::vector<Request>& requests, std::size_t first,
                 std::size_t count, double rate_hz, std::uint64_t seed) {
  Phase phase;
  // Per-session Poisson processes merged, truncated to `count` arrivals.
  const double duration_s = 4.0 * static_cast<double>(count) / rate_hz + 10.0;
  const std::vector<serve::Arrival> arrivals = serve::make_poisson_arrivals(
      kSessions, echoimage::units::Hertz{rate_hz / kSessions}, duration_s,
      seed);
  if (arrivals.size() < count)
    throw std::runtime_error("arrival schedule too short");
  for (std::size_t i = 0; i < count; ++i) {
    phase.requests.push_back(&requests[first + i]);
    phase.due_s.push_back(arrivals[i].time_s);
    phase.session.push_back(arrivals[i].session_id);
  }
  return phase;
}

/// One served frame and when its request was due.
struct Served {
  double due_s = 0.0;
  serve::CompletedFrame frame;
};

struct PhaseRun {
  std::vector<Served> served;
  std::size_t rejected_at_ingest = 0;
  std::vector<std::size_t> batch_frames;
  double end_s = 0.0;
  double max_late_s = 0.0;  ///< how late the generator submitted
};

/// Drives one phase on a fresh deterministic service. `factory` builds the
/// frame processor against the service's clock. With a `rotation`, each
/// scheduler step runs on the next CPU, so a phase's frame costs sample
/// every CPU rather than the one the scheduler left the thread on (a move
/// costs the frame its warm caches: well under 1 % of a 0.19 s frame).
PhaseRun run_phase(const Phase& phase, const serve::ProcessorFactory& factory,
                   const CpuRotation* rotation) {
  serve::ServiceConfig config;
  config.deterministic = true;
  config.ingest.num_sessions = kSessions;
  serve::AuthService service(config, factory);
  serve::VirtualClock* clock = service.virtual_clock();

  std::vector<std::vector<std::size_t>> arrival_of(kSessions);
  PhaseRun run;
  const serve::CompletionSink sink = [&](const serve::CompletedFrame& f) {
    const std::size_t a = arrival_of.at(f.session_id).at(f.seq);
    run.served.push_back(Served{phase.due_s[a], f});
  };
  std::size_t next = 0;
  const std::size_t n = phase.requests.size();
  for (;;) {
    const double now = clock->now_s();
    for (; next < n && phase.due_s[next] <= now; ++next) {
      const std::uint64_t session = phase.session[next];
      if (service.submitted(session) != arrival_of[session].size())
        throw std::runtime_error("serve sequence numbers out of step");
      arrival_of[session].push_back(next);
      run.max_late_s = std::max(run.max_late_s, now - phase.due_s[next]);
      const serve::OfferOutcome offer = service.submit(
          session, phase.requests[next]->capture, 0.0, phase.due_s[next]);
      if (offer != serve::OfferOutcome::kAccepted) ++run.rejected_at_ingest;
    }
    if (service.ingest().depth() == 0) {
      if (next == n) break;
      clock->advance_to(phase.due_s[next]);
      continue;
    }
    if (rotation != nullptr) rotation->pin(run.batch_frames.size());
    run.batch_frames.push_back(service.step(sink));
  }
  run.end_s = clock->now_s();
  return run;
}

/// One call into the full lane: the request and what the lane returned,
/// before any deadline demotion.
struct FullCall {
  std::uint64_t request = 0;
  core::AuthDecision decision;
};

/// Wraps a processor to log every full-lane call, in call order.
serve::FrameProcessor logging_full_lane(
    serve::FrameProcessor inner,
    const std::unordered_map<const core::CaptureAttempt*, std::uint64_t>& ids,
    std::vector<FullCall>& log) {
  return [inner = std::move(inner), &ids, &log](
             const serve::CaptureFrame& frame,
             serve::ServiceMode mode) -> serve::FrameResult {
    serve::FrameResult result = inner(frame, mode);
    if (mode == serve::ServiceMode::kFull)
      log.push_back(FullCall{ids.at(frame.capture.get()), result.decision});
    return result;
  };
}

/// What one pass (untraced or traced) produced.
struct Pass {
  PhaseRun nominal;
  PhaseRun overload;
  std::vector<FullCall> full_calls;
  std::size_t nominal_full_calls = 0;  ///< full_calls made in the nominal phase
  double wall_s = 0.0;
  double cpu_s = 0.0;

  /// Runs both phases; `factory` wraps its processor in logging_full_lane.
  void run(const Phase& nominal_phase, const Phase& overload_phase,
           const serve::ProcessorFactory& factory,
           const CpuRotation* rotation) {
    const double cpu0 = process_cpu_s();
    const double wall0 = now_s();
    nominal = run_phase(nominal_phase, factory, rotation);
    nominal_full_calls = full_calls.size();
    overload = run_phase(overload_phase, factory, rotation);
    wall_s = now_s() - wall0;
    cpu_s = process_cpu_s() - cpu0;
  }
};

bool decided(const core::AuthDecision& d) {
  return d.outcome != core::AuthOutcome::kAbstained;
}

/// Latencies (due -> decision) of the decided frames of a phase.
std::vector<double> decided_latency(const PhaseRun& run) {
  std::vector<double> out;
  for (const Served& s : run.served)
    if (decided(s.frame.decision))
      out.push_back(s.frame.completion_time_s - s.due_s);
  return out;
}

/// The full-lane decisions of the nominal requests in due order, as a full
/// lane fresh from set-up gives them. Independent of timing, so they carry
/// the fingerprint and the accept rates.
struct NominalDecisions {
  std::string fingerprint;
  Quality quality;
  bool replayed = false;
};

/// Takes the decisions from the timed phase when its full lane served
/// exactly the nominal requests in due order with none cut short by the
/// deadline: that lane then had the canonical history. Otherwise replays
/// the nominal requests in due order on the lane `fresh_lane()` builds,
/// with `decide(lane, request)`, after timing.
template <typename FreshLane, typename Decide>
NominalDecisions canonical_nominal(const Phase& nominal, const Pass& pass,
                                   const FreshLane& fresh_lane,
                                   const Decide& decide) {
  const std::size_t n = nominal.requests.size();
  bool canonical = pass.nominal_full_calls == n;
  for (std::size_t i = 0; canonical && i < n; ++i) {
    const FullCall& call = pass.full_calls[i];
    canonical = call.request == nominal.requests[i]->id &&
                call.decision.abstain_reason != core::AbstainReason::kDeadline;
  }
  NominalDecisions out;
  out.replayed = !canonical;
  std::optional<Setup> replay;
  if (!canonical) replay.emplace(fresh_lane());
  Fingerprint fp;
  for (std::size_t i = 0; i < n; ++i) {
    const Request& r = *nominal.requests[i];
    const core::AuthDecision d = canonical
                                     ? pass.full_calls[i].decision
                                     : decide(replay->lanes.front(), r);
    fp.decision(r.id, d);
    if (decided(d)) out.quality.add(r, d);
  }
  out.fingerprint = fp.hex();
  return out;
}

}  // namespace

void run_serve_default(const Options& options, Result& result) {
  const double inputs_t0 = now_s();
  const std::vector<core::SystemConfig> configs = {full_config(),
                                                   reduced_config()};
  const Roster roster = make_roster(configs.front());
  const auto nominal_n = static_cast<std::size_t>(
      std::max(4.0, std::round(options.seconds * kNominalPerSecond)));
  const auto overload_n = static_cast<std::size_t>(
      std::max(4.0, std::round(options.seconds * kOverloadPerSecond)));
  // Each phase always gets the same captures and the same arrival times;
  // the seed orders the captures within the phase.
  std::vector<std::size_t> order = permutation(nominal_n, options.seed);
  for (const std::size_t i : permutation(overload_n, options.seed ^ 0x0B))
    order.push_back(nominal_n + i);
  const std::vector<Request> requests = make_requests(
      roster,
      request_specs(nominal_n + overload_n, kEnrolled, kImpostors, kBeeps),
      order);
  const Phase nominal =
      make_phase(requests, 0, nominal_n, kNominalHz, kScheduleSeed);
  const Phase overload = make_phase(requests, nominal_n, overload_n,
                                    kOverloadHz, kScheduleSeed + 1);
  std::unordered_map<const core::CaptureAttempt*, std::uint64_t> ids;
  for (const Request& r : requests) ids[r.capture.get()] = r.id;
  const std::vector<EnrollCaptures> enroll = enrollment_captures(
      roster, kEnrolled, kEnrollVisits, kEnrollBeeps, kCalibrationBeeps);

  result.note("inputs_s", now_s() - inputs_t0);
  result.note("rss_watermark_restarted",
              restart_rss_watermark() ? "true" : "false");
  // Set-up: both lanes built and enrolled, repeated for the median. Every
  // lane runs on the calling thread (num_threads 1, one scheduler worker),
  // so set-up repeats and scheduler steps move from CPU to CPU.
  std::optional<CpuRotation> rotation;
  rotation.emplace();
  SetupTimes times;
  const Setup setup =
      build_lanes_repeated(configs, enroll, options.trace ? 1 : kSetupRepeats,
                           times, &*rotation);
  const serve::ServiceConfig service_defaults;
  const core::CaptureSupervisorConfig supervisor_config =
      service_defaults.supervisor;

  // Untraced pass: the deployed processor.
  Pass plain;
  {
    serve::PipelineLanes lanes;
    lanes.full = setup.lanes[0].pipeline.get();
    lanes.full_auth = &setup.lanes[0].auth;
    lanes.reduced = setup.lanes[1].pipeline.get();
    lanes.reduced_auth = &setup.lanes[1].auth;
    const serve::ProcessorFactory factory = [&](const serve::Clock& clock) {
      return logging_full_lane(
          serve::make_pipeline_processor(lanes, supervisor_config, clock), ids,
          plain.full_calls);
    };
    plain.run(nominal, overload, factory, &*rotation);
  }
  rotation.reset();
  const NominalDecisions plain_full = canonical_nominal(
      nominal, plain,
      [&] { return build_lanes({full_config()}, enroll, nullptr); },
      [&](const Lane& lane, const Request& r) {
        const CapturePtr capture = r.capture;
        return core::CaptureSupervisor(*lane.pipeline, supervisor_config)
            .authenticate(core::SharedCaptureSource(
                              [capture](std::size_t) { return capture; }),
                          lane.auth);
      });
  result.note("nominal_replayed", plain_full.replayed ? "true" : "false");
  check_fingerprint(options, "fingerprint", plain_full.fingerprint, result);

  // Accounting over both phases.
  const std::size_t attempted = nominal_n + overload_n;
  std::size_t decided_total = 0;
  std::size_t overload_decided = 0;
  std::size_t undecided = 0;
  std::map<std::string, std::size_t> fates;
  for (const PhaseRun* run : {&plain.nominal, &plain.overload}) {
    fates["rejected_at_ingest"] += run->rejected_at_ingest;
    undecided += run->rejected_at_ingest;
    for (const Served& s : run->served) {
      const core::AuthDecision& d = s.frame.decision;
      if (!decided(d)) {
        ++fates[std::string("abstain_") + core::to_string(d.abstain_reason)];
        ++undecided;
        continue;
      }
      ++decided_total;
      if (run == &plain.overload) ++overload_decided;
      ++fates[std::string("decided_") + serve::to_string(s.frame.mode)];
    }
  }
  if (decided_total + undecided != attempted)
    result.fail("serve accounting: completions do not add up to arrivals");
  result.attempted = attempted;
  result.decided = decided_total;

  const Summary lat = summarize(decided_latency(plain.nominal));
  const Quality& quality = plain_full.quality;
  const Share genuine = wilson(quality.genuine_accepted, quality.genuine);
  const Share impostor = wilson(quality.impostor_accepted, quality.impostor);
  std::string fate_json = "{";
  for (const auto& [fate, count] : fates)
    fate_json += (fate_json.size() > 1 ? ", " : "") + json_string(fate) +
                 ": " + std::to_string(count);
  result.note("fates", fate_json + "}");
  result.note("rates_hz", "{\"nominal\": " + json_number(kNominalHz) +
                              ", \"overload\": " + json_number(kOverloadHz) +
                              "}");
  result.note("arrivals", "{\"nominal\": " + std::to_string(nominal_n) +
                              ", \"overload\": " + std::to_string(overload_n) +
                              "}");
  const core::SystemConfig& full = configs.front();
  result.note(
      "constants",
      "{\"arrivals_per_run_second\": {\"nominal\": " +
          json_number(kNominalPerSecond) +
          ", \"overload\": " + json_number(kOverloadPerSecond) +
          "}, \"sessions\": " + std::to_string(kSessions) +
          ", \"deadline_s\": " + json_number(service_defaults.default_deadline_s) +
          ", \"beeps\": " + std::to_string(kBeeps) +
          ", \"grid\": " + std::to_string(full.imaging.grid_size) +
          ", \"subbands\": {\"full\": " +
          std::to_string(full.imaging.num_subbands) +
          ", \"reduced\": " + std::to_string(kReducedSubbands) +
          "}, \"num_threads\": " + std::to_string(full.num_threads) +
          ", \"enrolled_users\": " + std::to_string(kEnrolled.size()) +
          ", \"schedule_seed\": " + std::to_string(kScheduleSeed) +
          ", \"population_seed\": " + std::to_string(kPopulationSeed) + "}");
  result.note("generator_late_s",
              std::max(plain.nominal.max_late_s, plain.overload.max_late_s));
  result.note_summary("nominal_latency_s", lat);
  result.note_share("genuine_accept", genuine);
  result.note_share("impostor_accept", impostor);
  result.note("overload_virtual_s", plain.overload.end_s);
  result.note("pass_s", plain.wall_s);
  result.note("setup_samples_s", times.setup_s);
  result.note("enroll_commit_samples_s", times.repeat_enroll_commit_s);

  if (!options.trace) {
    EndToEnd e;
    e.setup_s = median(times.setup_s);
    e.latency_p50_s = lat.p50;
    e.latency_tail_s = lat.tail;
    e.decided_per_s =
        static_cast<double>(overload_decided) / plain.overload.end_s;
    e.served_share =
        static_cast<double>(decided_total) / static_cast<double>(attempted);
    e.genuine_accept = genuine.value();
    e.impostor_accept = impostor.value();
    e.enroll_commit_s = times.enroll_commit_s();
    e.peak_rss_mb = peak_rss_mb();
    emit_end_to_end(e, result);
    return;
  }

  // Traced pass: fresh lanes (cold weight caches) from the recomposed
  // enrollment; each frame recomposes the supervisor steps.
  Tracer tracer;
  const Setup traced = build_lanes(configs, enroll, &tracer);
  std::size_t attempts = 0;
  std::size_t processed = 0;
  Pass spanned;
  if (const auto* cache = traced.lanes[0].pipeline->imager().weight_cache())
    cache->reset_stats();
  const serve::ProcessorFactory traced_factory = [&](const serve::Clock&
                                                         clock) {
    serve::FrameProcessor processor =
        [&, deadline_clock = &clock](
            const serve::CaptureFrame& frame,
            serve::ServiceMode mode) -> serve::FrameResult {
      const Lane& lane = traced.lanes[mode == serve::ServiceMode::kReducedBand];
      core::DeadlineProbe probe;
      if (frame.deadline_s > 0.0)
        probe = [deadline_clock, deadline_s = frame.deadline_s] {
          return deadline_clock->now_s() >= deadline_s;
        };
      const std::uint64_t request = ids.at(frame.capture.get());
      serve::FrameResult out;
      const double t0 = now_s();
      {
        auto root = tracer.span("request", request);
        out.decision = traced_authenticate(
            *lane.pipeline, lane.auth, frame.capture,
            supervisor_config.max_attempts, probe, tracer, request, attempts);
      }
      out.cost_s = now_s() - t0;
      ++processed;
      return out;
    };
    return logging_full_lane(std::move(processor), ids, spanned.full_calls);
  };
  spanned.run(nominal, overload, traced_factory, nullptr);
  const auto* cache = traced.lanes[0].pipeline->imager().weight_cache();
  const double hit_rate = cache == nullptr ? 0.0 : cache->stats().hit_rate();
  if (!options.state_dir.empty())
    tracer.write(options.state_dir + "/" + options.workload + "-spans.csv");

  // Decisions: the recomposed nominal full-lane decisions must equal the
  // deployed ones (replays go to a scratch tracer, outside the layers).
  Tracer scratch;
  std::size_t scratch_attempts = 0;
  const NominalDecisions traced_full = canonical_nominal(
      nominal, spanned,
      [&] { return build_lanes({full_config()}, enroll, &scratch); },
      [&](const Lane& lane, const Request& r) {
        return traced_authenticate(*lane.pipeline, lane.auth, r.capture,
                                   supervisor_config.max_attempts, {}, scratch,
                                   r.id, scratch_attempts);
      });
  result.note("traced_nominal_replayed", traced_full.replayed ? "true" : "false");
  result.note("traced_fingerprint", json_string(traced_full.fingerprint));
  if (traced_full.fingerprint != plain_full.fingerprint)
    result.fail("traced full-lane fingerprint differs from the untraced one");

  // Per-layer numbers from the traced pass's completions.
  std::vector<double> queue_wait;
  for (const Served& s : spanned.nominal.served)
    queue_wait.push_back(s.frame.queue_wait_s);
  std::vector<double> service;
  for (const PhaseRun* run : {&spanned.nominal, &spanned.overload})
    for (const Served& s : run->served)
      if (s.frame.service_s > 0.0) service.push_back(s.frame.service_s);
  std::size_t reduced = 0;
  std::size_t shed = spanned.overload.rejected_at_ingest;
  for (const Served& s : spanned.overload.served) {
    if (s.frame.mode == serve::ServiceMode::kReducedBand &&
        decided(s.frame.decision))
      ++reduced;
    if (s.frame.decision.shed_by_backend()) ++shed;
  }
  double frames = 0.0;
  for (const std::size_t b : spanned.overload.batch_frames)
    frames += static_cast<double>(b);
  const Summary wait = summarize(queue_wait);
  const double overload_count = static_cast<double>(overload_n);

  LayerReport layers;
  layers.timings["serve.service_s"] = summarize(service);
  layers.values["array.weight_cache.hit_rate"] = hit_rate;
  layers.values["runtime.cpu_per_wall"] = plain.cpu_s / plain.wall_s;
  layers.values["core.supervisor.attempts"] =
      processed == 0 ? 0.0
                     : static_cast<double>(attempts) /
                           static_cast<double>(processed);
  layers.values["serve.queue_wait_p50_s"] = wait.p50;
  layers.values["serve.queue_wait_tail_s"] = wait.tail;
  layers.values["serve.reduced_share"] =
      static_cast<double>(reduced) / overload_count;
  layers.values["serve.shed_share"] = static_cast<double>(shed) / overload_count;
  layers.values["serve.batch_frames"] =
      spanned.overload.batch_frames.empty()
          ? 0.0
          : frames / static_cast<double>(spanned.overload.batch_frames.size());
  layers.values["trace.coverage"] = tracer.coverage("request");
  layers.values["trace.overhead"] =
      median(decided_latency(spanned.nominal)) / lat.p50 - 1.0;
  emit_layers(tracer, layers, result);
}

}  // namespace perfbench
