// The three workloads. Each renders its inputs from the options' seed,
// sets up, runs the untraced pass (and, with --trace 1, the traced pass
// over the same inputs), checks the decisions, and fills `result` with the
// end-to-end metrics (trace 0) or the per-layer metrics (trace 1).
#pragma once

#include "harness.hpp"

namespace perfbench {

void run_serve_default(const Options& options, Result& result);
void run_verify_paper(const Options& options, Result& result);
void run_identify_gallery(const Options& options, Result& result);

/// Number of times a trace-0 run repeats its set-up; setup_s is the median.
inline constexpr int kSetupRepeats = 3;

}  // namespace perfbench
