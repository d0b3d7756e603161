// Measurement plumbing shared by the three workloads: latency summaries,
// Wilson intervals, decision fingerprints, process resource usage, the
// in-memory span recorder of the traced pass, and the result that main()
// prints. Nothing here touches the program under test.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <thread>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/authenticator.hpp"

namespace perfbench {

/// Monotonic seconds (steady clock) since an arbitrary epoch.
[[nodiscard]] double now_s();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for fingerprints and span dumps; empty = keep nothing.
  std::string state_dir;
};

/// Median and tail of a set of timings. The tail is the highest percentile
/// with at least kTailBeyond samples beyond it (nearest rank n - 10, level
/// (n - 10) / n). Below 20 samples that percentile would fall under the
/// median, so the tail is the maximum instead (level 1.0, nothing beyond).
inline constexpr std::size_t kTailBeyond = 10;
struct Summary {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_level = 0.0;
  std::size_t beyond = 0;
};
[[nodiscard]] Summary summarize(std::vector<double> samples);
[[nodiscard]] double median(std::vector<double> samples);

/// k of n with its Wilson 95 % score interval.
struct Share {
  std::size_t k = 0;
  std::size_t n = 0;
  double lo = 0.0;
  double hi = 0.0;
  [[nodiscard]] double value() const {
    return n == 0 ? 0.0 : static_cast<double>(k) / static_cast<double>(n);
  }
};
[[nodiscard]] Share wilson(std::size_t k, std::size_t n);

/// Order-sensitive 64-bit fold of decisions (splitmix64 steps).
class Fingerprint {
 public:
  void fold(std::uint64_t value);
  /// Request id, outcome, abstain reason and user id.
  void decision(std::uint64_t request, const echoimage::core::AuthDecision& d);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xEC401A6EULL;
};

[[nodiscard]] bool same_decision(const echoimage::core::AuthDecision& a,
                                 const echoimage::core::AuthDecision& b);

/// Process user + system CPU seconds and peak resident set (getrusage).
[[nodiscard]] double process_cpu_s();
[[nodiscard]] double peak_rss_mb();

/// Called once the inputs are generated: returns the free heap to the
/// system and restarts the peak-RSS watermark at the current RSS, so
/// peak_rss_mb covers set-up and serving with the inputs resident but not
/// the generators' scratch. Returns false when the kernel refused the reset.
bool restart_rss_watermark();

/// CPUs this process may run on (sched_getaffinity), at least 1.
[[nodiscard]] std::size_t nproc();

/// Moves the calling thread from CPU to CPU of those the process may use.
/// On a shared host each CPU runs at its own speed (up to 1.5x apart on a
/// 4-vCPU VM, changing over seconds), and the scheduler leaves a lone busy
/// thread on one CPU, so a single-threaded loop would read one CPU's speed
/// for a whole run. Restores the thread's CPU set on destruction.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the calling thread to CPU k (mod the number of usable CPUs).
  void pin(std::size_t k) const;

 private:
  std::vector<int> cpus_;
};

/// Runs body(i) for i in [0, n) on up to four threads (input generation,
/// never timed work); rethrows the first failure once every thread joined.
template <typename Body>
void run_parallel(std::size_t n, const Body& body) {
  const std::size_t workers = std::max<std::size_t>(
      1, std::min<std::size_t>({std::size_t{4}, n, nproc()}));
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(workers);
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w)
    threads.emplace_back([&, w] {
      try {
        for (std::size_t i = next++; i < n; i = next++) body(i);
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

/// Seeded permutation of [0, n).
[[nodiscard]] std::vector<std::size_t> permutation(std::size_t n,
                                                   std::uint64_t seed);

/// Spans recorded from the benchmark's own files around calls into the
/// program's public functions. Single-threaded: spans open and close on the
/// driving thread, so the parent of a span is whichever span is open when
/// it starts. Kept in memory; `write` dumps them when the pass ends.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
    std::uint64_t request = 0;
    bool has_child = false;
  };

  /// Closes its span on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int id_;
  };

  [[nodiscard]] Scope span(const char* name, std::uint64_t request) {
    return Scope(*this, name, request);
  }

  /// Durations of every closed span called `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Sum of the durations of childless spans under roots called `root`,
  /// divided by the summed durations of those roots.
  [[nodiscard]] double coverage(const std::string& root) const;
  /// CSV dump of the first kMaxDumpedSpans spans (the statistics above
  /// always cover every span).
  void write(const std::string& path) const;
  static constexpr std::size_t kMaxDumpedSpans = 200000;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// What one run prints: a report line with the detail (counts, intervals,
/// fingerprints), then the final result line.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Raw JSON value for the report line.
  void note(const std::string& key, const std::string& json);
  void note(const std::string& key, double value);
  void note(const std::string& key, const std::vector<double>& values);
  void note_share(const std::string& key, const Share& share);
  void note_summary(const std::string& key, const Summary& summary);
  /// Marks the run incorrect; the reason goes to stderr and the report.
  void fail(const std::string& reason);

  [[nodiscard]] bool correct() const { return errors_.empty(); }
  /// Requests issued, and those answered with an accept or a reject. The
  /// rest (shed, deadline or capture abstains) are the report's "failed";
  /// the result line's "failed" counts requests that raised, which end the
  /// run instead, so a printed result always has 0 there.
  std::size_t attempted = 0;
  std::size_t decided = 0;

  void print(const Options& options) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<std::string> errors_;
};

/// The end-to-end metrics of a --trace 0 run, identical for every workload.
struct EndToEnd {
  double setup_s = 0.0;         ///< median of the set-up repeats
  double latency_p50_s = 0.0;   ///< request -> decision
  double latency_tail_s = 0.0;  ///< see Summary
  double decided_per_s = 0.0;   ///< decisions that were not shed, per second
  double served_share = 0.0;    ///< decided / attempted
  double genuine_accept = 0.0;  ///< genuine requests accepted as their user
  double impostor_accept = 0.0;  ///< impostor requests accepted as anyone
  double enroll_commit_s = 0.0;  ///< one more enrollment until servable
  double peak_rss_mb = 0.0;
};
void emit_end_to_end(const EndToEnd& e, Result& result);

/// The per-layer metrics of a --trace 1 run. Span-timed layers print a
/// median under their bare name plus ".tail" and ".count"; the others are
/// one value each. Every workload prints the whole list: a layer it does
/// not exercise reads 0.
struct LayerReport {
  /// Timings not taken from spans (serve.service_s, from CompletedFrame).
  std::map<std::string, Summary> timings;
  std::map<std::string, double> values;
};
void emit_layers(const Tracer& tracer, const LayerReport& report,
                 Result& result);

[[nodiscard]] std::string json_string(const std::string& s);
[[nodiscard]] std::string json_number(double v);

/// Compares `fingerprint` with the one an earlier run of the same workload,
/// seed and --seconds left in the state directory (then stores it if none
/// was there).
void check_fingerprint(const Options& options, const std::string& label,
                       const std::string& fingerprint, Result& result);

}  // namespace perfbench
