// Tracer contract tests: same-lane nesting, cross-lane attachment from
// pool workers, canonical structure ordering, disabled/null no-op guards,
// and export sanity. Runs in the concurrency suite so the `tsan` lane
// checks the lock-free lane recording.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"

namespace echoimage::obs {
namespace {

TEST(Tracer, NestedSpansOnOneLaneFormATree) {
  const Tracer tracer;
  {
    EI_SPAN_NAMED(outer, &tracer, "outer");
    { EI_SPAN(&tracer, "inner", 0); }
    { EI_SPAN(&tracer, "inner", 1); }
  }
  EXPECT_EQ(tracer.num_events(), 3u);
  EXPECT_EQ(tracer.structure(),
            "outer\n"
            "  inner[0]\n"
            "  inner[1]\n");
}

TEST(Tracer, ChildrenSortCanonicallyByNameThenArg) {
  const Tracer tracer;
  {
    EI_SPAN(&tracer, "root");
    { EI_SPAN(&tracer, "zeta"); }
    { EI_SPAN(&tracer, "alpha", 2); }
    { EI_SPAN(&tracer, "alpha", 1); }
    { EI_SPAN(&tracer, "alpha"); }
  }
  // Argless before argful within a name; args ascend.
  EXPECT_EQ(tracer.structure(),
            "root\n"
            "  alpha\n"
            "  alpha[1]\n"
            "  alpha[2]\n"
            "  zeta\n");
}

TEST(Tracer, CrossLaneAttachParentsPoolWorkSpansUnderTheRegionSpan) {
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kChunks = 8;
  const Tracer tracer(TraceConfig{kWorkers, 64});
  echoimage::runtime::ThreadPool pool(kWorkers);
  {
    EI_SPAN_NAMED(sweep, &tracer, "sweep");
    const SpanHandle attach = sweep.handle();
    pool.run([&](std::size_t worker) {
      for (std::size_t chunk = worker; chunk < kChunks; chunk += kWorkers) {
        EI_SPAN(&tracer, "chunk", chunk, attach);
      }
    });
  }
  EXPECT_EQ(tracer.num_events(), kChunks + 1);
  std::string expected = "sweep\n";
  for (std::size_t chunk = 0; chunk < kChunks; ++chunk)
    expected += "  chunk[" + std::to_string(chunk) + "]\n";
  EXPECT_EQ(tracer.structure(), expected);
}

TEST(Tracer, ExplicitParentWinsOverTheLanesOpenSpan) {
  // Sibling spans opened back to back on one lane, each naming the same
  // explicit parent, stay siblings: the lane's innermost open span (the
  // previous sibling) does not capture them. This is how one region can
  // carry work for several parents at once.
  const Tracer tracer;
  {
    EI_SPAN_NAMED(root, &tracer, "root");
    EI_SPAN_NAMED(first, &tracer, "part", 0, root.handle());
    EI_SPAN_NAMED(second, &tracer, "part", 1, root.handle());
    { EI_SPAN(&tracer, "work", 7, first.handle()); }
    { EI_SPAN(&tracer, "leaf"); }
  }
  EXPECT_EQ(tracer.structure(),
            "root\n"
            "  part[0]\n"
            "    work[7]\n"
            "  part[1]\n"
            "    leaf\n");
}

TEST(Tracer, StructureIsInvariantAcrossWorkerCounts) {
  constexpr std::size_t kChunks = 16;
  std::string structures[2];
  const std::size_t worker_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    const Tracer tracer(TraceConfig{worker_counts[i], 64});
    echoimage::runtime::ThreadPool pool(worker_counts[i]);
    EI_SPAN_NAMED(region, &tracer, "region");
    const SpanHandle attach = region.handle();
    pool.run([&](std::size_t worker) {
      for (std::size_t chunk = worker; chunk < kChunks;
           chunk += pool.num_workers()) {
        EI_SPAN(&tracer, "chunk", chunk, attach);
        EI_SPAN(&tracer, "leaf", chunk);
      }
    });
    structures[i] = tracer.structure();
  }
  EXPECT_EQ(structures[0], structures[1]);
}

TEST(Tracer, DisabledTracerRecordsNothing) {
  Tracer tracer;
  tracer.set_enabled(false);
  {
    EI_SPAN(&tracer, "invisible");
    { EI_SPAN(&tracer, "also", 3); }
  }
  EXPECT_EQ(tracer.num_events(), 0u);
  EXPECT_EQ(tracer.structure(), "");
}

TEST(Tracer, NullTracerIsASafeNoOp) {
  const Tracer* tracer = nullptr;
  EI_SPAN(tracer, "nothing");
  EI_SPAN(tracer, "nothing", 7);
  SUCCEED();
}

TEST(Tracer, ClearDropsEventsButKeepsRecording) {
  const Tracer tracer;
  { EI_SPAN(&tracer, "before"); }
  tracer.clear();
  EXPECT_EQ(tracer.num_events(), 0u);
  { EI_SPAN(&tracer, "after"); }
  EXPECT_EQ(tracer.structure(), "after\n");
}

TEST(Tracer, ChromeTraceJsonCarriesNamesLanesAndArgs) {
  const Tracer tracer;
  {
    EI_SPAN(&tracer, "stage", 5);
  }
  const std::string json = tracer.chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"stage\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"arg\":5}"), std::string::npos);
}

TEST(Tracer, SummaryAggregatesPerName) {
  const Tracer tracer;
  { EI_SPAN(&tracer, "b"); }
  { EI_SPAN(&tracer, "a", 0); }
  { EI_SPAN(&tracer, "a", 1); }
  const std::string summary = tracer.summary();
  EXPECT_LT(summary.find("a"), summary.find("b"));
  EXPECT_NE(summary.find("count=2"), std::string::npos);
  EXPECT_NE(summary.find("count=1"), std::string::npos);
}

}  // namespace
}  // namespace echoimage::obs
