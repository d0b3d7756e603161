#!/usr/bin/env sh
# Build and run the robustness benches in smoke mode (tiny roster, core
# scenarios only) as a fast end-to-end check that the fault-tolerance and
# drift-resilience pipelines still meet their acceptance lines.
#
# Usage: tools/run_bench_smoke.sh [build-dir]
# Defaults to build/; pass an existing CMake build tree to reuse it.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir="${1:-$repo_root/build}"

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release

# The compile database is the contract with the static-analysis tooling
# (tools/run_static_analysis.sh, tools/echolint.py): fail fast if this
# tree was configured without it rather than let lint run on stale flags.
if [ ! -f "$build_dir/compile_commands.json" ]; then
  echo "run_bench_smoke: $build_dir has no compile_commands.json —" \
       "reconfigure with CMAKE_EXPORT_COMPILE_COMMANDS=ON (the project" \
       "default); a tree without it predates the lint wiring." >&2
  exit 2
fi

cmake --build "$build_dir" -j "$(nproc)" \
  --target bench_faults --target bench_drift --target bench_throughput \
  --target bench_serve --target bench_store --target bench_ident \
  --target bench_micro_dsp

status=0
for bench in bench_faults bench_drift bench_serve \
             bench_store bench_ident bench_micro_dsp; do
  echo "=== $bench --smoke ==="
  if ! (cd "$build_dir/bench" && "./$bench" --smoke); then
    echo "$bench: FAILED" >&2
    status=1
  fi
done

# The throughput bench gets the --paper opt-in here (skipped in the ctest
# smoke registration): the committed BENCH_throughput.json must carry a
# measured 180x180 full-band paper-scale entry, not a placeholder.
echo "=== bench_throughput --smoke --paper ==="
if ! (cd "$build_dir/bench" && ./bench_throughput --smoke --paper); then
  echo "bench_throughput: FAILED" >&2
  status=1
fi

# Every bench exports a Chrome trace_event file (load in ui.perfetto.dev)
# next to its JSON results; surface where they landed.
echo "=== trace exports ==="
for trace in BENCH_faults_trace.json BENCH_drift_trace.json \
             BENCH_throughput_trace.json BENCH_serve_trace.json \
             BENCH_store_trace.json BENCH_ident_trace.json; do
  if [ -f "$build_dir/bench/$trace" ]; then
    echo "$build_dir/bench/$trace"
  else
    echo "missing trace export: $trace" >&2
    status=1
  fi
done

# Refresh the committed result snapshots at the repo root. Every committed
# snapshot comes from a full run (the throughput sweep at 48x48x5 and 1-8
# threads, the kernel micro-bench at full repetitions, the >= 100k-template
# store gallery): only copy one when the build tree holds a non-smoke
# result, so a smoke pass never clobbers the committed full-run numbers.
if [ "$status" -eq 0 ] && [ -f "$build_dir/bench/BENCH_throughput.json" ] &&
   grep -q '"smoke": false' "$build_dir/bench/BENCH_throughput.json"; then
  cp "$build_dir/bench/BENCH_throughput.json" "$repo_root/BENCH_throughput.json"
  echo "refreshed $repo_root/BENCH_throughput.json"
fi
if [ "$status" -eq 0 ] && [ -f "$build_dir/bench/BENCH_micro_dsp.json" ] &&
   grep -q '"smoke": false' "$build_dir/bench/BENCH_micro_dsp.json"; then
  cp "$build_dir/bench/BENCH_micro_dsp.json" "$repo_root/BENCH_micro_dsp.json"
  echo "refreshed $repo_root/BENCH_micro_dsp.json"
fi
if [ "$status" -eq 0 ] && [ -f "$build_dir/bench/BENCH_store.json" ] &&
   grep -q '"smoke": false' "$build_dir/bench/BENCH_store.json"; then
  cp "$build_dir/bench/BENCH_store.json" "$repo_root/BENCH_store.json"
  echo "refreshed $repo_root/BENCH_store.json"
fi
# Same full-run-only rule for the identification snapshot: its committed
# numbers cover the 1k/10k/100k gallery ladder, which --smoke truncates.
if [ "$status" -eq 0 ] && [ -f "$build_dir/bench/BENCH_ident.json" ] &&
   grep -q '"smoke": false' "$build_dir/bench/BENCH_ident.json"; then
  cp "$build_dir/bench/BENCH_ident.json" "$repo_root/BENCH_ident.json"
  echo "refreshed $repo_root/BENCH_ident.json"
fi
exit $status
