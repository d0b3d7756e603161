#include "harness.hpp"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "sim/random.hpp"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(samples.begin(), samples.begin() + mid);
  return 0.5 * (lower + upper);
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = median(samples);
  const std::size_t n = samples.size();
  s.tail = samples.back();
  s.tail_level = 1.0;
  if (n >= 2 * kTailBeyond) {
    // Nearest rank n - 10: the eleventh-largest sample.
    s.tail = samples[n - kTailBeyond - 1];
    s.tail_level =
        static_cast<double>(n - kTailBeyond) / static_cast<double>(n);
    s.beyond = kTailBeyond;
  }
  return s;
}

Share wilson(std::size_t k, std::size_t n) {
  Share s;
  s.k = k;
  s.n = n;
  if (n == 0) return s;
  constexpr double z = 1.959963984540054;
  const double nn = static_cast<double>(n);
  const double p = static_cast<double>(k) / nn;
  const double denom = 1.0 + z * z / nn;
  const double center = (p + z * z / (2.0 * nn)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / nn + z * z / (4.0 * nn * nn)) / denom;
  s.lo = std::max(0.0, center - half);
  s.hi = std::min(1.0, center + half);
  return s;
}

void Fingerprint::fold(std::uint64_t value) {
  std::uint64_t z = h_ ^ value;
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  h_ = z ^ (z >> 31);
}

void Fingerprint::decision(std::uint64_t request,
                           const echoimage::core::AuthDecision& d) {
  fold(request);
  fold(static_cast<std::uint64_t>(d.outcome));
  fold(static_cast<std::uint64_t>(d.abstain_reason));
  fold(static_cast<std::uint64_t>(static_cast<std::int64_t>(d.user_id)));
}

std::string Fingerprint::hex() const {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << h_;
  return os.str();
}

bool same_decision(const echoimage::core::AuthDecision& a,
                   const echoimage::core::AuthDecision& b) {
  return a.outcome == b.outcome && a.abstain_reason == b.abstain_reason &&
         a.user_id == b.user_id;
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool restart_rss_watermark() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5" << std::flush;
  return static_cast<bool>(clear_refs);
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

namespace {

void set_affinity(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  // pid 0: the calling thread.
  if (sched_setaffinity(0, sizeof(set), &set) != 0)
    throw std::runtime_error("sched_setaffinity failed");
}

}  // namespace

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0)
    throw std::runtime_error("sched_getaffinity failed");
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
}

CpuRotation::~CpuRotation() {
  try {
    set_affinity(cpus_);
  } catch (const std::exception&) {
    // Left pinned: only the measurement's spread suffers.
  }
}

void CpuRotation::pin(std::size_t k) const {
  set_affinity({cpus_[k % cpus_.size()]});
}

std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  echoimage::sim::Rng rng(echoimage::sim::mix_seed(seed, 0x0DE5));
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(i) - 1));
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t request)
    : tracer_(&tracer), id_(static_cast<int>(tracer.spans_.size())) {
  Span span;
  span.name = name;
  span.request = request;
  if (!tracer.open_.empty()) {
    span.parent = tracer.open_.back();
    tracer.spans_[static_cast<std::size_t>(span.parent)].has_child = true;
  }
  tracer.open_.push_back(id_);
  span.start_s = now_s();
  tracer.spans_.push_back(span);
}

Tracer::Scope::~Scope() {
  tracer_->spans_[static_cast<std::size_t>(id_)].end_s = now_s();
  tracer_->open_.pop_back();
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (name == s.name) out.push_back(s.end_s - s.start_s);
  return out;
}

double Tracer::coverage(const std::string& root) const {
  // Index of each span's root (spans are recorded parents-first).
  std::vector<int> root_of(spans_.size(), -1);
  double roots = 0.0;
  double leaves = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    root_of[i] = s.parent < 0 ? static_cast<int>(i)
                              : root_of[static_cast<std::size_t>(s.parent)];
    const Span& r = spans_[static_cast<std::size_t>(root_of[i])];
    if (root != r.name) continue;
    if (s.parent < 0) roots += s.end_s - s.start_s;
    if (s.parent >= 0 && !s.has_child) leaves += s.end_s - s.start_s;
  }
  return roots > 0.0 ? leaves / roots : 0.0;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  out << "id,parent,request,name,start_s,end_s\n" << std::setprecision(17);
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start_s;
  for (std::size_t i = 0; i < std::min(spans_.size(), kMaxDumpedSpans); ++i) {
    const Span& s = spans_[i];
    out << i << ',' << s.parent << ',' << s.request << ',' << s.name << ','
        << s.start_s - t0 << ',' << s.end_s - t0 << '\n';
  }
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite measurement");
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, {value, unit}});
}

void Result::note(const std::string& key, const std::string& json) {
  notes_.push_back({key, json});
}

void Result::note(const std::string& key, double value) {
  note(key, std::isfinite(value) ? json_number(value) : "null");
}

void Result::note(const std::string& key, const std::vector<double>& values) {
  std::string json = "[";
  for (std::size_t i = 0; i < values.size(); ++i)
    json += (i ? ", " : "") + json_number(values[i]);
  note(key, json + "]");
}

void Result::note_share(const std::string& key, const Share& share) {
  note(key, "{\"k\": " + std::to_string(share.k) +
                ", \"n\": " + std::to_string(share.n) +
                ", \"value\": " + json_number(share.value()) +
                ", \"wilson95\": [" + json_number(share.lo) + ", " +
                json_number(share.hi) + "]}");
}

void Result::note_summary(const std::string& key, const Summary& s) {
  note(key, "{\"count\": " + std::to_string(s.count) +
                ", \"p50\": " + json_number(s.p50) +
                ", \"tail\": " + json_number(s.tail) +
                ", \"tail_level\": " + json_number(s.tail_level) +
                ", \"beyond\": " + std::to_string(s.beyond) + "}");
}

void Result::fail(const std::string& reason) {
  std::cerr << "echobench: INCORRECT: " << reason << '\n';
  errors_.push_back(reason);
}

void Result::print(const Options& options) const {
  std::ostringstream report;
  report << "{\"report\": {\"workload\": " << json_string(options.workload)
         << ", \"seed\": " << options.seed
         << ", \"trace\": " << (options.trace ? 1 : 0)
         << ", \"attempted\": " << attempted
         << ", \"succeeded\": " << decided
         << ", \"failed\": " << attempted - decided;
  for (const auto& [key, json] : notes_)
    report << ", " << json_string(key) << ": " << json;
  report << ", \"errors\": [";
  for (std::size_t i = 0; i < errors_.size(); ++i)
    report << (i ? ", " : "") << json_string(errors_[i]);
  report << "]}}";
  std::cout << report.str() << '\n';

  std::ostringstream line;
  line << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": 0"
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, value_unit] = metrics_[i];
    line << (i ? ", " : "") << json_string(name)
         << ": {\"value\": " << json_number(value_unit.first)
         << ", \"unit\": " << json_string(value_unit.second) << "}";
  }
  line << "}}";
  std::cout << line.str() << std::endl;
}

namespace {

/// Span-timed layers: metric base name -> span name.
const std::pair<const char*, const char*> kSpanLayers[] = {
    {"core.imaging.image_s", "core.imaging.image"},
    {"ml.cnn.features_s", "ml.cnn.features"},
    {"core.distance.estimate_s", "core.distance.estimate"},
    {"core.health.assess_s", "core.health.assess"},
    {"core.authenticator.score_s", "core.authenticator.score"},
    {"core.augment.transform_s", "core.augment.transform"},
    {"core.authenticator.train_s", "core.authenticator.train"},
    {"core.pipeline.process_s", "core.pipeline.process"},
    {"ident.prefilter_s", "ident.prefilter"},
    {"ident.identify_s", "ident.identify"},
    {"ident.refresh_s", "ident.refresh"},
    {"store.commit_s", "store.commit"},
    {"store.lookup_s", "store.lookup"},
};

/// Single-valued layers: name -> unit.
const std::pair<const char*, const char*> kValueLayers[] = {
    {"array.weight_cache.hit_rate", "share"},
    {"runtime.cpu_per_wall", "ratio"},
    {"core.supervisor.attempts", "count"},
    {"serve.queue_wait_p50_s", "s"},
    {"serve.queue_wait_tail_s", "s"},
    {"serve.reduced_share", "share"},
    {"serve.shed_share", "share"},
    {"serve.batch_frames", "count"},
    {"ident.verifier_runs", "count"},
    {"ident.verifier_cache.hit_rate", "share"},
    {"trace.coverage", "share"},
    {"trace.overhead", "ratio"},
};

void emit_timing(const std::string& name, const Summary& s, Result& result) {
  result.metric(name, s.p50, "s");
  result.metric(name + ".tail", s.tail, "s");
  result.metric(name + ".count", static_cast<double>(s.count), "count");
}

}  // namespace

void emit_end_to_end(const EndToEnd& e, Result& result) {
  result.metric("setup_s", e.setup_s, "s");
  result.metric("latency_p50_s", e.latency_p50_s, "s");
  result.metric("latency_tail_s", e.latency_tail_s, "s");
  result.metric("decided_per_s", e.decided_per_s, "1/s");
  result.metric("served_share", e.served_share, "share");
  result.metric("genuine_accept", e.genuine_accept, "share");
  result.metric("impostor_accept", e.impostor_accept, "share");
  result.metric("enroll_commit_s", e.enroll_commit_s, "s");
  result.metric("peak_rss_mb", e.peak_rss_mb, "MB");
}

void emit_layers(const Tracer& tracer, const LayerReport& report,
                 Result& result) {
  for (const auto& [name, span] : kSpanLayers)
    emit_timing(name, summarize(tracer.durations(span)), result);
  const auto service = report.timings.find("serve.service_s");
  emit_timing("serve.service_s",
              service == report.timings.end() ? Summary{} : service->second,
              result);
  for (const auto& [name, unit] : kValueLayers) {
    const auto it = report.values.find(name);
    result.metric(name, it == report.values.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, value] : report.values) {
    bool known = false;
    for (const auto& layer : kValueLayers) known |= name == layer.first;
    if (!known) result.fail("unknown per-layer metric " + name);
  }
}

void check_fingerprint(const Options& options, const std::string& label,
                       const std::string& fingerprint, Result& result) {
  result.note(label, json_string(fingerprint));
  if (options.state_dir.empty()) return;
  // The request count follows --seconds, so it is part of the key.
  char seconds[32];
  std::snprintf(seconds, sizeof(seconds), "%g", options.seconds);
  const std::string path = options.state_dir + "/" + options.workload + "-" +
                           std::to_string(options.seed) + "-" + seconds +
                           "s-" + label;
  std::ifstream in(path);
  std::string earlier;
  if (in >> earlier) {
    if (earlier != fingerprint)
      result.fail(label + " " + fingerprint + " differs from " + earlier +
                  ", left by an earlier run with the same seed");
    return;
  }
  std::ofstream(path) << fingerprint << '\n';
}

}  // namespace perfbench
