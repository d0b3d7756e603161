#include "runtime/parallel_for.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace echoimage::runtime {
namespace {

// Cheap deterministic pseudo-random doubles (splitmix64-style) whose
// products round differently for every index.
double noise(std::size_t i) {
  std::uint64_t z = (static_cast<std::uint64_t>(i) + 1) * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return static_cast<double>(z) / 1e19 - 0.9;
}

TEST(StaticChunk, CoversRangeDisjointlyInOrder) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{8}, std::size_t{100}}) {
    for (const std::size_t workers : {std::size_t{1}, std::size_t{3},
                                      std::size_t{8}}) {
      std::size_t covered = 0;
      std::size_t prev_last = 0;
      for (std::size_t w = 0; w < workers; ++w) {
        const IndexRange r = static_chunk(n, w, workers);
        EXPECT_EQ(r.first, prev_last);  // contiguous, ascending
        EXPECT_LE(r.first, r.last);
        covered += r.last - r.first;
        prev_last = r.last;
      }
      EXPECT_EQ(prev_last, n);
      EXPECT_EQ(covered, n);
    }
  }
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    ThreadPool pool(threads);
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                                std::size_t{17}, std::size_t{64}}) {
      std::vector<std::atomic<int>> counts(n);
      parallel_for(pool, n, [&](std::size_t i, std::size_t worker) {
        EXPECT_LT(worker, pool.num_workers());
        ++counts[i];
      });
      for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
    }
  }
}

TEST(ParallelFor, SlotWritesAreBitIdenticalAcrossPoolSizes) {
  const std::size_t n = 131;  // odd on purpose
  std::vector<double> reference(n);
  for (std::size_t i = 0; i < n; ++i) reference[i] = noise(i) * noise(i + 7);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    ThreadPool pool(threads);
    std::vector<double> out(n, 0.0);
    parallel_for(pool, n, [&](std::size_t i, std::size_t) {
      out[i] = noise(i) * noise(i + 7);
    });
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
                std::bit_cast<std::uint64_t>(reference[i]));
  }
}

TEST(ParallelFor, RethrowsTheLowestFailingIndexForAnyScheduling) {
  // Two throwing indices: whichever worker fails first, every index below
  // it was already claimed, so index 3's exception must surface.
  constexpr std::size_t n = 200;
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4},
                                    std::size_t{8}}) {
    ThreadPool pool(threads);
    for (int round = 0; round < 20; ++round) {
      try {
        parallel_for(pool, n, [&](std::size_t i, std::size_t) {
          if (i == 3 || i == 11) throw std::runtime_error(std::to_string(i));
        });
        ADD_FAILURE() << "parallel_for swallowed the exceptions";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "3") << threads << " workers";
      }
    }
    // The pool is still usable after a failed region.
    std::atomic<std::size_t> total{0};
    parallel_for(pool, 50, [&](std::size_t, std::size_t) { ++total; });
    EXPECT_EQ(total.load(), 50u);
  }
}

TEST(ParallelFor, FastWorkersTakeOverASlowWorkersShare) {
  // Work sharing: a worker stuck on one slow index must not own a fixed
  // slice of the rest. With a static split the slow worker's chunk would
  // run on it alone; with the shared cursor the other workers drain it.
  ThreadPool pool(2);
  std::vector<std::size_t> owner(64, 99);
  std::atomic<bool> release{false};
  parallel_for(pool, owner.size(), [&](std::size_t i, std::size_t worker) {
    owner[i] = worker;
    if (i == 0) {
      while (!release.load()) std::this_thread::yield();
    } else if (i + 1 == owner.size()) {
      release.store(true);
    }
  });
  // Index 0 blocked its worker until the last index ran, so one worker ran
  // every other index.
  for (std::size_t i = 1; i < owner.size(); ++i)
    EXPECT_NE(owner[i], owner[0]) << "index " << i;
}

TEST(ScratchArena, SlotsAreIndependentPerWorker) {
  ThreadPool pool(4);
  ScratchArena<std::vector<int>> arena(pool);
  ASSERT_EQ(arena.num_slots(), 4u);
  parallel_for(pool, 400, [&](std::size_t, std::size_t worker) {
    arena.local(worker).push_back(static_cast<int>(worker));
  });
  std::size_t total = 0;
  for (std::size_t w = 0; w < arena.num_slots(); ++w) {
    for (const int v : arena.local(w))
      EXPECT_EQ(v, static_cast<int>(w));  // never another worker's writes
    total += arena.local(w).size();
  }
  EXPECT_EQ(total, 400u);
}

TEST(ScratchArena, ZeroWorkersStillHasOneSlot) {
  ScratchArena<int> arena(std::size_t{0});
  EXPECT_EQ(arena.num_slots(), 1u);
  arena.local(0) = 7;
  EXPECT_EQ(arena.local(0), 7);
}

}  // namespace
}  // namespace echoimage::runtime
