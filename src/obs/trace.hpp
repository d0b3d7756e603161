// Scoped tracing spans: the per-session trace tree.
//
// A span is an RAII scope (`EI_SPAN(tracer, "imaging.grid_sweep")`) that
// records name, optional logical argument (band / row / attempt index),
// worker lane, start time, and duration. Spans nest: each worker lane keeps
// its own open-span stack, so a span's parent is the innermost open span on
// the same lane — unless the span names an explicit parent handle, which
// wins. Work fanned out across pool workers names the span that stands for
// its part of the region, so its parent does not depend on which lane ran
// it or what that lane had open. Lanes are written only by their own
// worker (keyed on runtime::current_worker()), so recording is lock-free
// and TSan-clean; export happens after the fork-join region has completed.
//
// Three exports:
//   * chrome_trace_json() — Chrome/Perfetto `trace_event` JSON (load via
//     chrome://tracing or ui.perfetto.dev); carries real timestamps.
//   * structure()         — the canonical, timing-free trace tree. Spans
//     are keyed on (name, arg) and children are sorted canonically, so the
//     bytes are identical for any worker count and any scheduling of a
//     seeded run. This is the golden-test oracle.
//   * summary()           — per-span-name aggregate timing table (count,
//     total, mean), sorted by name.
//
// Determinism contract for instrumentation sites: spans emitted from
// parallel regions must carry a logical `arg` that identifies the chunk
// (e.g. the grid row), and the (name, arg) multiset under one parent must
// not depend on the worker count — chunk by fixed grain, never by pool
// size. Sites that follow this make trace *structure* a seeded-run
// invariant even though timings and lane assignments are not.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/thread_pool.hpp"

namespace echoimage::obs {

/// Identifies one recorded span: its lane plus the index within the lane.
/// `kNoParent` marks a root.
struct SpanHandle {
  std::uint32_t lane = 0xFFFFFFFFu;
  std::uint32_t index = 0xFFFFFFFFu;

  [[nodiscard]] bool valid() const { return lane != 0xFFFFFFFFu; }
  bool operator==(const SpanHandle&) const = default;
};
inline constexpr SpanHandle kNoParent{};

struct TraceConfig {
  /// Trace lanes; worker indexes beyond this wrap. Size to the pool.
  std::size_t max_workers = 16;
  /// Events preallocated per lane so steady-state recording never
  /// allocates (a lane past its reserve grows amortized like any vector).
  std::size_t reserve_per_lane = 4096;
};

struct TraceEvent {
  const char* name = "";        ///< static string (span taxonomy)
  std::uint64_t arg = 0;        ///< logical index (band, row, attempt)
  bool has_arg = false;
  SpanHandle parent = kNoParent;
  std::uint64_t start_ns = 0;   ///< steady-clock, excluded from structure
  std::uint64_t duration_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(TraceConfig config = {});

  [[nodiscard]] const TraceConfig& config() const { return config_; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Flip recording. Only call while no spans are open (between sessions).
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Open a span on the calling worker's lane. Parent resolution: `attach`
  /// when valid (the cross-lane parent a parallel region passes into its
  /// workers), otherwise the lane's innermost open span, otherwise none.
  [[nodiscard]] SpanHandle begin(const char* name, bool has_arg = false,
                                 std::uint64_t arg = 0,
                                 SpanHandle attach = kNoParent) const;
  void end(SpanHandle handle) const;

  /// Drop all recorded spans (lane reserves survive).
  void clear() const;

  [[nodiscard]] std::size_t num_events() const;
  [[nodiscard]] const std::vector<TraceEvent>& lane_events(
      std::size_t lane) const {
    return lanes_[lane].events;
  }
  [[nodiscard]] std::size_t num_lanes() const { return lanes_.size(); }

  /// Chrome `trace_event` JSON with real timestamps (microseconds,
  /// rebased so the earliest span starts at 0; lanes become tids).
  [[nodiscard]] std::string chrome_trace_json() const;

  /// Canonical timing-free tree: one line per span, two-space indent per
  /// depth, `name[arg]` labels, children sorted by (name, arg, recording
  /// order). Byte-identical across runs and worker counts for sites that
  /// follow the determinism contract above.
  [[nodiscard]] std::string structure() const;

  /// Per-name aggregate: count, total ms, mean ms — sorted by name.
  [[nodiscard]] std::string summary() const;

 private:
  struct alignas(64) Lane {
    std::vector<TraceEvent> events;
    std::vector<std::uint32_t> open;  ///< indices of open spans, innermost last
  };

  TraceConfig config_;
  bool enabled_ = true;
  // Mutable: recording into the caller's own lane is observational state,
  // reachable from const pipeline stages. Deliberately NOT a lock-guarded
  // capability: the synchronization discipline is lane ownership — lane k
  // is written only by the worker with current_worker() == k (the vector
  // itself is sized at construction and never reshaped), and the exports
  // read all lanes only after the fork-join region has completed, with the
  // pool's own join as the happens-before edge. A sync::Mutex here would
  // put a contended acquire on every span begin/end in the imaging hot
  // path for a race that the ownership rule already excludes (and the TSan
  // lane audits).
  mutable std::vector<Lane> lanes_;
};

/// RAII span guard. A null tracer (observability off) or a disabled one
/// reduces the whole scope to two branches and no stores.
class ScopedSpan {
 public:
  ScopedSpan(const Tracer* tracer, const char* name)
      : tracer_(resolve(tracer)) {
    if (tracer_ != nullptr) handle_ = tracer_->begin(name);
  }
  ScopedSpan(const Tracer* tracer, const char* name, std::uint64_t arg)
      : tracer_(resolve(tracer)) {
    if (tracer_ != nullptr) handle_ = tracer_->begin(name, true, arg);
  }
  ScopedSpan(const Tracer* tracer, const char* name, std::uint64_t arg,
             SpanHandle attach)
      : tracer_(resolve(tracer)) {
    if (tracer_ != nullptr) handle_ = tracer_->begin(name, true, arg, attach);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Handle for attaching cross-lane children (invalid when not tracing).
  [[nodiscard]] SpanHandle handle() const { return handle_; }

 private:
  static const Tracer* resolve(const Tracer* tracer) {
    return tracer != nullptr && tracer->enabled() ? tracer : nullptr;
  }

  const Tracer* tracer_;
  SpanHandle handle_;
};

#define EI_SPAN_CAT2(a, b) a##b
#define EI_SPAN_CAT(a, b) EI_SPAN_CAT2(a, b)
/// EI_SPAN(tracer, "name"), EI_SPAN(tracer, "name", arg), or
/// EI_SPAN(tracer, "name", arg, attach_handle).
#define EI_SPAN(...) \
  const ::echoimage::obs::ScopedSpan EI_SPAN_CAT(ei_span_, __LINE__)(__VA_ARGS__)
/// Named variant when the handle is needed for cross-lane attachment.
#define EI_SPAN_NAMED(var, ...) \
  const ::echoimage::obs::ScopedSpan var(__VA_ARGS__)

}  // namespace echoimage::obs
