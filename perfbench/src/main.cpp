// echobench: the EchoImage end-to-end benchmark driver.
//
//   echobench --workload <serve_default|verify_paper|identify_gallery>
//             --seed <n> --seconds <s> --trace <0|1> [--state-dir <dir>]
//
// Prints a report line (counts, Wilson intervals, tail levels,
// fingerprints) and then, as the last line of stdout, the result:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// With --trace 0 the metrics are the end-to-end ones, measured with the
// program's observability bundle off; with --trace 1 they are the
// per-layer ones from a separate traced pass over the same inputs. Exits
// 1 without a result when a decision check fails or anything throws.
// perfbench/run.py builds this binary and calls it.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "echobench: " << why
            << "\nusage: echobench --workload <serve_default|verify_paper|"
               "identify_gallery> --seed <n> --seconds <s> --trace <0|1> "
               "[--state-dir <dir>]\n";
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--state-dir") {
        options.state_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (options.workload.empty() || !have_seed) usage("--workload and --seed are required");
  if (!(options.seconds >= 1.0)) usage("--seconds must be at least 1");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options options = parse(argc, argv);
  perfbench::Result result;
  try {
    if (options.workload == "serve_default") {
      perfbench::run_serve_default(options, result);
    } else if (options.workload == "verify_paper") {
      perfbench::run_verify_paper(options, result);
    } else if (options.workload == "identify_gallery") {
      perfbench::run_identify_gallery(options, result);
    } else {
      usage("unknown workload " + options.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "echobench: " << options.workload << " threw: " << e.what()
              << '\n';
    return 1;
  }
  if (!result.correct()) {
    std::cerr << "echobench: " << options.workload
              << ": decisions failed their checks; no result\n";
    return 1;
  }
  result.print(options);
  return 0;
}
