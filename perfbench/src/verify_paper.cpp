// verify_paper: closed loop, one device. CaptureSupervisor::authenticate
// over distinct captures at the paper's imaging scale (180x180 grids of
// 1 cm, 5 bands, 2 beeps per capture) with one imaging worker per CPU,
// against a small multi-user Authenticator enrolled in set-up. The grid
// sweep and the per-capture weight solves dominate; the runtime pool is on.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "array/weight_cache.hpp"
#include "core/supervisor.hpp"
#include "eval/experiment.hpp"
#include "population.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kBeeps = 2;
/// Enrollment per user: one augmented visit and one calibration visit, of
/// kBeeps beeps each.
constexpr std::size_t kEnrollVisits = 1;
/// Requests per second of --seconds: about what a 4-core AVX2 host
/// completes at this scale, so the loop fills the requested time.
constexpr double kRequestsPerSecond = 0.75;
/// At least 20 requests, so that latency_tail_s, the highest percentile
/// with 10 samples beyond it, exists (at 20 it is the nearest-rank median,
/// the 10th of 20) and the accept rates rest on 12 genuine and 8 impostor
/// requests. So the pass runs longer than --seconds below about 27 s.
constexpr std::size_t kMinRequests = 20;
/// Roster indices (paper Table I): two enrolled users, and the eight
/// subjects the paper uses as spoofers.
const std::vector<std::size_t> kEnrolled = {0, 5};
const std::vector<std::size_t> kImpostors = {12, 13, 14, 15, 16, 17, 18, 19};

core::SystemConfig paper_config() {
  core::SystemConfig config = eval::default_system_config();
  config.imaging.grid_size = 180;
  config.imaging.grid_spacing_m = 0.01;
  config.num_threads = nproc();
  config.harmonize();
  return config;
}

double weight_cache_hit_rate(const core::EchoImagePipeline& pipeline) {
  const echoimage::array::WeightCache* cache = pipeline.imager().weight_cache();
  return cache == nullptr ? 0.0 : cache->stats().hit_rate();
}

void reset_weight_cache_stats(const core::EchoImagePipeline& pipeline) {
  if (const echoimage::array::WeightCache* cache =
          pipeline.imager().weight_cache())
    cache->reset_stats();
}

}  // namespace

void run_verify_paper(const Options& options, Result& result) {
  const double inputs_t0 = now_s();
  const core::SystemConfig config = paper_config();
  const Roster roster = make_roster(config);
  const auto count = std::max<std::size_t>(
      kMinRequests,
      static_cast<std::size_t>(std::llround(options.seconds * kRequestsPerSecond)));
  const std::vector<Request> requests =
      make_requests(roster, request_specs(count, kEnrolled, kImpostors, kBeeps),
                    permutation(count, options.seed));
  const std::vector<EnrollCaptures> enroll =
      enrollment_captures(roster, kEnrolled, kEnrollVisits, kBeeps, kBeeps);

  result.note("inputs_s", now_s() - inputs_t0);
  result.note("rss_watermark_restarted",
              restart_rss_watermark() ? "true" : "false");
  // Set-up: pipeline construction and enrollment, repeated for the median.
  SetupTimes times;
  const Setup setup = build_lanes_repeated(
      {config}, enroll, options.trace ? 1 : kSetupRepeats, times);
  const Lane& lane = setup.lanes.front();
  const core::CaptureSupervisor supervisor(*lane.pipeline);

  // Untraced pass.
  std::vector<core::AuthDecision> decisions(count);
  std::vector<double> latency;
  reset_weight_cache_stats(*lane.pipeline);
  const double cpu0 = process_cpu_s();
  const double wall0 = now_s();
  for (const Request& request : requests) {
    const CapturePtr capture = request.capture;
    const core::SharedCaptureSource source = [capture](std::size_t) {
      return capture;
    };
    const double t0 = now_s();
    decisions[request.id] = supervisor.authenticate(source, lane.auth);
    latency.push_back(now_s() - t0);
  }
  const double wall_s = now_s() - wall0;
  const double cpu_s = process_cpu_s() - cpu0;
  const double hit_rate = weight_cache_hit_rate(*lane.pipeline);

  Fingerprint fingerprint;
  Quality quality;
  std::vector<double> decided_latency;
  for (const Request& request : requests) {
    const core::AuthDecision& d = decisions[request.id];
    fingerprint.decision(request.id, d);
    if (d.outcome == core::AuthOutcome::kAbstained) continue;
    quality.add(request, d);
    decided_latency.push_back(latency[request.id]);
  }
  const std::size_t decided = decided_latency.size();
  result.attempted = count;
  result.decided = decided;
  check_fingerprint(options, "fingerprint", fingerprint.hex(), result);
  const Summary lat = summarize(decided_latency);
  const Share genuine = wilson(quality.genuine_accepted, quality.genuine);
  const Share impostor = wilson(quality.impostor_accepted, quality.impostor);
  result.note_summary("latency_s", lat);
  result.note_share("genuine_accept", genuine);
  result.note_share("impostor_accept", impostor);
  result.note("weight_cache_hit_rate", hit_rate);
  result.note("cpu_per_wall", cpu_s / wall_s);
  result.note("pass_s", wall_s);
  result.note("setup_samples_s", times.setup_s);
  result.note("enroll_commit_samples_s", times.repeat_enroll_commit_s);
  result.note("constants",
              "{\"grid\": " + std::to_string(config.imaging.grid_size) +
                  ", \"grid_spacing_m\": " +
                  json_number(config.imaging.grid_spacing_m) +
                  ", \"subbands\": " +
                  std::to_string(config.imaging.num_subbands) +
                  ", \"beeps\": " + std::to_string(kBeeps) +
                  ", \"num_threads\": " + std::to_string(config.num_threads) +
                  ", \"requests_per_run_second\": " +
                  json_number(kRequestsPerSecond) +
                  ", \"min_requests\": " + std::to_string(kMinRequests) +
                  ", \"enrolled_users\": " + std::to_string(kEnrolled.size()) +
                  ", \"population_seed\": " + std::to_string(kPopulationSeed) +
                  "}");

  if (!options.trace) {
    EndToEnd e;
    e.setup_s = median(times.setup_s);
    e.latency_p50_s = lat.p50;
    e.latency_tail_s = lat.tail;
    e.decided_per_s = static_cast<double>(decided) / wall_s;
    e.served_share = static_cast<double>(decided) / static_cast<double>(count);
    e.genuine_accept = genuine.value();
    e.impostor_accept = impostor.value();
    e.enroll_commit_s = times.enroll_commit_s();
    e.peak_rss_mb = peak_rss_mb();
    emit_end_to_end(e, result);
    return;
  }

  // Traced pass: fresh pipeline (cold weight cache), recomposed enrollment
  // and recomposed supervisor steps over the same requests.
  Tracer tracer;
  const Setup traced = build_lanes({config}, enroll, &tracer);
  const Lane& traced_lane = traced.lanes.front();
  reset_weight_cache_stats(*traced_lane.pipeline);
  std::vector<double> traced_latency;
  std::size_t attempts = 0;
  for (const Request& request : requests) {
    const double t0 = now_s();
    core::AuthDecision d;
    {
      auto root = tracer.span("request", request.id);
      d = traced_authenticate(*traced_lane.pipeline, traced_lane.auth,
                              request.capture, supervisor.config().max_attempts,
                              {}, tracer, request.id, attempts);
    }
    traced_latency.push_back(now_s() - t0);
    if (!same_decision(d, decisions[request.id]))
      result.fail("request " + std::to_string(request.id) +
                  ": recomposed decision differs from CaptureSupervisor's");
  }
  if (!options.state_dir.empty())
    tracer.write(options.state_dir + "/" + options.workload + "-spans.csv");

  LayerReport layers;
  layers.values["array.weight_cache.hit_rate"] =
      weight_cache_hit_rate(*traced_lane.pipeline);
  layers.values["runtime.cpu_per_wall"] = cpu_s / wall_s;
  layers.values["core.supervisor.attempts"] =
      static_cast<double>(attempts) / static_cast<double>(count);
  layers.values["trace.coverage"] = tracer.coverage("request");
  layers.values["trace.overhead"] =
      median(traced_latency) / median(latency) - 1.0;
  emit_layers(tracer, layers, result);
}

}  // namespace perfbench
