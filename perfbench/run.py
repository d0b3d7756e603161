#!/usr/bin/env python3
"""Build and run the EchoImage end-to-end benchmark.

    python3 perfbench/run.py --workload serve_default --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds the
`echobench` driver (perfbench/CMakeLists.txt, which builds the repository's
libraries from source) into .bench_build/; later calls rebuild
incrementally. Build output goes to stderr, so the last line of stdout is
the driver's JSON result. Exits non-zero, without a result, when the build
or the run fails or when the EchoImage sources are missing.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("serve_default", "verify_paper", "identify_gallery")
SETTLE_S = 15


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    """Configure once, then build the driver; False when that fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no EchoImage sources next to perfbench/ (expected src/)")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("cmake configure failed")
            return False
    if subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "echobench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        log("build failed")
        return False
    return True


def state_dir(binary):
    """Per-binary directory for fingerprints and span dumps: a rebuilt
    program never compares its decisions with another build's."""
    with open(binary, "rb") as f:
        digest = hashlib.sha1(f.read()).hexdigest()[:16]
    path = os.path.join(BUILD_ROOT, "perfbench-state", digest)
    os.makedirs(path, exist_ok=True)
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    binary = os.path.join(BUILD_DIR, "echobench")
    before = os.path.getmtime(binary) if os.path.exists(binary) else None
    if not build():
        return 2
    if os.path.getmtime(binary) != before:
        # Compiling just kept every core busy; measuring straight away read
        # 20-50 % slow on the first run. Let the machine settle first.
        log("fresh build; settling for %d s before measuring" % SETTLE_S)
        time.sleep(SETTLE_S)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--state-dir", state_dir(binary)]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
