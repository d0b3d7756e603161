// Deterministic data-parallel loops over a ThreadPool.
//
// `parallel_for` hands indices of [0, n) out one at a time from a shared
// atomic cursor, so a worker that finishes early takes the next index
// instead of idling at the join. Each index still runs exactly once, so a
// body that writes only to per-index output slots produces bit-identical
// results for every worker count and every schedule — the foundation of
// the imaging engine's determinism guarantee. The worker argument is the
// pool's worker index (a valid ScratchArena key), not a chunk number.
// Once an index throws, no further indices are handed out and the
// exception of the lowest failing index is rethrown: every lower index was
// already claimed and ran to completion, so that choice does not depend on
// scheduling.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <vector>

#include "runtime/thread_pool.hpp"

namespace echoimage::runtime {

/// Contiguous static chunk `w` out of `workers` over [0, n), for callers
/// that hand each index a whole range (CentroidIndex::distances).
struct IndexRange {
  std::size_t first = 0;
  std::size_t last = 0;
};
[[nodiscard]] inline IndexRange static_chunk(std::size_t n, std::size_t w,
                                             std::size_t workers) {
  return {n * w / workers, n * (w + 1) / workers};
}

/// body(i, worker) for every i in [0, n), each exactly once, with indices
/// claimed from a shared cursor. Worker 0 is the calling thread; with a
/// one-worker pool this is a plain serial loop. Regions must not nest on
/// one pool: a body may not call parallel_for on the pool running it.
template <typename Body>
void parallel_for(ThreadPool& pool, std::size_t n, const Body& body) {
  if (n == 0) return;
  const std::size_t workers = std::min(pool.num_workers(), n);
  if (workers == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i, std::size_t{0});
    return;
  }
  // A worker stops at its first failure; the slot is read after the join.
  struct Failure {
    std::size_t index = 0;
    std::exception_ptr error;
  };
  std::vector<Failure> failures(workers);
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};
  pool.run([&](std::size_t w) {
    if (w >= workers) return;
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        body(i, w);
      } catch (...) {
        failures[w] = {i, std::current_exception()};
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  });
  const Failure* lowest = nullptr;
  for (const Failure& f : failures)
    if (f.error && (lowest == nullptr || f.index < lowest->index)) lowest = &f;
  if (lowest != nullptr) std::rethrow_exception(lowest->error);
}

/// parallel_for on `*pool`, or a plain serial loop when `pool` is null (a
/// stage configured for one worker owns no pool).
template <typename Body>
void parallel_for(ThreadPool* pool, std::size_t n, const Body& body) {
  if (pool == nullptr) {
    for (std::size_t i = 0; i < n; ++i) body(i, std::size_t{0});
    return;
  }
  parallel_for(*pool, n, body);
}

/// Per-worker scratch storage, one padded slot per worker index so two
/// workers never share a cache line through their scratch state.
template <typename T>
class ScratchArena {
 public:
  explicit ScratchArena(std::size_t workers)
      : slots_(std::max<std::size_t>(1, workers)) {}
  explicit ScratchArena(const ThreadPool& pool)
      : ScratchArena(pool.num_workers()) {}

  [[nodiscard]] std::size_t num_slots() const { return slots_.size(); }
  [[nodiscard]] T& local(std::size_t worker) { return slots_[worker].value; }
  [[nodiscard]] const T& local(std::size_t worker) const {
    return slots_[worker].value;
  }

 private:
  struct alignas(64) Slot {
    T value{};
  };
  std::vector<Slot> slots_;
};

}  // namespace echoimage::runtime
