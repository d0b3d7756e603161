// Imaging-engine throughput: images/sec and CPU-seconds per wall-second
// across thread counts, plus the determinism spot-check that makes the
// parallel numbers trustworthy (every configuration must reproduce the
// serial image bit for bit).
//
// The workload mirrors deployment: a batch of beeps from one stance shares
// a single estimated plane distance.
//
// Acceptance:
//   * determinism — every thread count's image is bit-identical to the
//     serial reference;
//   * scaling    — >= 3x speedup at 8 threads, gated on the machine
//     actually having >= 4 hardware threads (SKIP otherwise: on fewer
//     cores the extra workers have nowhere to run).
//
// Writes BENCH_throughput.json into the working directory, plus
// BENCH_throughput_trace.json — a Chrome trace_event export of one
// instrumented render (per-band, per-row span timings). The timed sweep
// itself runs with observability off, as deployment does.
// `--smoke` shrinks the grid and repetitions for CI smoke runs.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/imaging.hpp"
#include "eval/dataset.hpp"
#include "eval/roster.hpp"
#include "eval/table.hpp"
#include "obs/observability.hpp"
#include "simd/isa.hpp"

namespace {

using namespace echoimage;

struct Measurement {
  std::size_t threads = 1;
  double images_per_sec = 0.0;
  double speedup_vs_serial = 0.0;  ///< vs threads = 1
  /// Process CPU-seconds per wall-second over the timed loop: how many
  /// workers were busy on average.
  double cpu_per_wall = 0.0;
  bool bit_identical = false;
};

/// CPU time of the whole process (all threads), in seconds.
double process_cpu_s() {
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

bool bitwise_equal(const std::vector<core::Matrix2D>& a,
                   const std::vector<core::Matrix2D>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t band = 0; band < a.size(); ++band) {
    if (a[band].rows() != b[band].rows() || a[band].cols() != b[band].cols())
      return false;
    for (std::size_t i = 0; i < a[band].size(); ++i)
      if (std::bit_cast<std::uint64_t>(a[band].data()[i]) !=
          std::bit_cast<std::uint64_t>(b[band].data()[i]))
        return false;
  }
  return true;
}

std::string json_bool(bool b) { return b ? "true" : "false"; }

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool paper_flag = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--paper") == 0) paper_flag = true;
  }
  // The 180x180 paper-scale render always runs on full benches; under
  // --smoke (the ctest registration) it needs the explicit --paper opt-in
  // so the smoke test stays fast. tools/run_bench_smoke.sh passes it: the
  // committed BENCH_throughput.json carries measured paper-scale numbers.
  const bool run_paper = !smoke || paper_flag;

  const std::size_t kGrid = smoke ? 16 : 48;
  const std::size_t kSubbands = smoke ? 2 : 5;
  const std::size_t kImages = smoke ? 6 : 8;  ///< images per configuration
  const std::vector<std::size_t> kThreads{1, 2, 4, 8};
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  std::cout << "== Imaging throughput: thread sweep ==\n("
            << kGrid << "x" << kGrid << " grids, " << kSubbands
            << " bands, " << kImages << " images per config, " << hw
            << " hardware thread(s)" << (smoke ? ", SMOKE" : "") << ")\n\n";

  const array::ArrayGeometry geometry = array::make_respeaker_array();
  const auto users = eval::make_users(eval::make_roster(), 7);
  const eval::DataCollector collector(sim::CaptureConfig{}, geometry, 7);
  eval::CollectionConditions cond;
  cond.beeps_per_stance = 4;
  const eval::CaptureBatch batch = collector.collect(users[0], cond, 4);

  core::ImagingConfig base;
  base.grid_size = kGrid;
  base.num_subbands = kSubbands;

  // Serial reference: the bit pattern every config must match.
  core::ImagingConfig ref_cfg = base;
  ref_cfg.num_threads = 1;
  const std::vector<core::Matrix2D> reference =
      core::AcousticImager(ref_cfg, geometry)
          .construct_bands(batch.beeps[0], echoimage::units::Meters{0.7},
                           0.0002, batch.noise_only);

  std::vector<Measurement> results;
  std::vector<std::vector<std::string>> rows;
  double serial_rate = 0.0;
  for (const std::size_t threads : kThreads) {
    core::ImagingConfig cfg = base;
    cfg.num_threads = threads;
    const core::AcousticImager imager(cfg, geometry);

    // Warm-up render: first-touch pool spin-up stays out of the timed
    // region (the steady state is what deployment sees).
    std::vector<core::Matrix2D> image = imager.construct_bands(
        batch.beeps[0], echoimage::units::Meters{0.7}, 0.0002,
        batch.noise_only);

    const double cpu_start = process_cpu_s();
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < kImages; ++r)
      image = imager.construct_bands(batch.beeps[r % batch.beeps.size()],
                                     echoimage::units::Meters{0.7}, 0.0002,
                                     batch.noise_only);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    const double cpu_s = process_cpu_s() - cpu_start;
    // Compare against the reference on the reference's beep (the timed
    // loop cycles through the batch, so `image` holds a different one).
    image = imager.construct_bands(batch.beeps[0],
                                   echoimage::units::Meters{0.7}, 0.0002,
                                   batch.noise_only);

    Measurement m;
    m.threads = threads;
    m.images_per_sec =
        static_cast<double>(kImages) / std::max(1e-9, elapsed.count());
    if (threads == 1) serial_rate = m.images_per_sec;
    m.speedup_vs_serial =
        serial_rate > 0.0 ? m.images_per_sec / serial_rate : 0.0;
    m.cpu_per_wall = cpu_s / std::max(1e-9, elapsed.count());
    m.bit_identical = bitwise_equal(image, reference);
    results.push_back(m);
    rows.push_back({std::to_string(threads), eval::fmt(m.images_per_sec),
                    eval::fmt(m.speedup_vs_serial), eval::fmt(m.cpu_per_wall),
                    m.bit_identical ? "yes" : "NO"});
    std::cerr << '.' << std::flush;
  }
  std::cerr << '\n';

  std::cout << '\n';
  eval::print_table(std::cout,
                    {"threads", "images/s", "speedup", "cpu/wall",
                     "bit-identical"},
                    rows);

  // --- Acceptance ---
  bool deterministic = true;
  for (const Measurement& m : results) deterministic &= m.bit_identical;

  double best_8t_speedup = 0.0;
  for (const Measurement& m : results)
    if (m.threads == 8 && m.speedup_vs_serial > best_8t_speedup)
      best_8t_speedup = m.speedup_vs_serial;
  const bool scaling_applicable = hw >= 4;
  const bool scaling_ok = best_8t_speedup >= 3.0;

  std::cout << "\ndeterminism (all configs match serial bitwise): "
            << (deterministic ? "PASS" : "FAIL")
            << "\n8-thread speedup: " << eval::fmt(best_8t_speedup)
            << "\nacceptance (>= 3x at 8 threads): ";
  if (!scaling_applicable)
    std::cout << "SKIP (machine has " << hw
              << " hardware thread(s); needs >= 4 for the claim to be "
                 "testable)";
  else
    std::cout << (scaling_ok ? "PASS" : "FAIL");
  std::cout << '\n';

  // --- SIMD lane sweep (serial): per-image speedup of each ISA
  // lane over forced scalar. Every lane must reproduce the reference bit
  // for bit — the sweep is a speed dial, never a numerics dial (DESIGN.md,
  // "SIMD model").
  struct LaneResult {
    std::string isa;
    double images_per_sec = 0.0;
    double speedup_vs_scalar = 0.0;
    bool bit_identical = false;
  };
  std::vector<LaneResult> lane_results;
  bool lanes_ok = true;
  {
    core::ImagingConfig cfg = base;
    cfg.num_threads = 1;
    const auto time_lane = [&](const core::AcousticImager& imager) {
      (void)imager.construct_bands(batch.beeps[0],
                                   echoimage::units::Meters{0.7}, 0.0002,
                                   batch.noise_only);  // warm-up
      const auto start = std::chrono::steady_clock::now();
      std::vector<core::Matrix2D> image;
      for (std::size_t r = 0; r < kImages; ++r)
        image = imager.construct_bands(batch.beeps[r % batch.beeps.size()],
                                       echoimage::units::Meters{0.7}, 0.0002,
                                       batch.noise_only);
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      return static_cast<double>(kImages) / std::max(1e-9, elapsed.count());
    };
    double scalar_rate = 0.0;
    std::vector<std::vector<std::string>> lane_rows;
    for (const simd::Isa isa : simd::supported_isas()) {
      simd::ScopedIsa forced(isa);
      const core::AcousticImager imager(cfg, geometry);
      LaneResult r;
      r.isa = simd::isa_name(isa);
      r.images_per_sec = time_lane(imager);
      if (isa == simd::Isa::kScalar) scalar_rate = r.images_per_sec;
      r.speedup_vs_scalar =
          scalar_rate > 0.0 ? r.images_per_sec / scalar_rate : 0.0;
      r.bit_identical = bitwise_equal(
          imager.construct_bands(batch.beeps[0],
                                 echoimage::units::Meters{0.7}, 0.0002,
                                 batch.noise_only),
          reference);
      lanes_ok &= r.bit_identical;
      lane_results.push_back(r);
      lane_rows.push_back({r.isa, eval::fmt(r.images_per_sec),
                           eval::fmt(r.speedup_vs_scalar),
                           r.bit_identical ? "yes" : "NO"});
      std::cerr << '.' << std::flush;
    }
    std::cerr << '\n';
    std::cout << "\n-- SIMD lane sweep (serial) --\n";
    eval::print_table(std::cout,
                      {"isa", "images/s", "speedup vs scalar", "bit-identical"},
                      lane_rows);
    std::cout << "lane determinism (every lane matches scalar bitwise): "
              << (lanes_ok ? "PASS" : "FAIL") << '\n';
  }

  // --- Paper-scale entry: 180x180 images at the paper's full band count
  // on the best lane, with every hardware thread and with one worker.
  // Each configuration renders once to warm up, then kPaperRuns timed
  // images (cycling through the batch's beeps), and reports the median
  // and the range: one render alone swung 2x between runs on one host.
  struct PaperRow {
    std::size_t threads = 1;
    double median_s = 0.0, min_s = 0.0, max_s = 0.0;
  };
  const std::size_t kPaperRuns = smoke ? 3 : 9;
  std::vector<PaperRow> paper_rows;
  if (run_paper) {
    std::vector<std::size_t> paper_threads{std::max(1u, hw)};
    if (paper_threads.front() > 1) paper_threads.push_back(1);
    std::vector<std::vector<std::string>> paper_table;
    for (const std::size_t threads : paper_threads) {
      core::ImagingConfig cfg = base;
      cfg.grid_size = 180;
      cfg.grid_spacing_m = 0.01;  // paper Sec. V-C: 180x180 of 1 cm
      cfg.num_subbands = 5;
      cfg.num_threads = threads;
      const core::AcousticImager imager(cfg, geometry);
      (void)imager.construct_bands(batch.beeps[0],
                                   echoimage::units::Meters{0.7}, 0.0002,
                                   batch.noise_only);  // warm-up
      std::vector<double> runs;
      for (std::size_t r = 0; r < kPaperRuns; ++r) {
        const auto start = std::chrono::steady_clock::now();
        (void)imager.construct_bands(batch.beeps[r % batch.beeps.size()],
                                     echoimage::units::Meters{0.7}, 0.0002,
                                     batch.noise_only);
        runs.push_back(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count());
      }
      std::sort(runs.begin(), runs.end());
      PaperRow row;
      row.threads = threads;
      row.median_s = runs[runs.size() / 2];
      row.min_s = runs.front();
      row.max_s = runs.back();
      paper_rows.push_back(row);
      paper_table.push_back({std::to_string(threads), eval::fmt(row.median_s),
                             eval::fmt(row.min_s), eval::fmt(row.max_s)});
    }
    std::cout << "\n-- paper scale (180x180, 5 bands, "
              << simd::isa_name(simd::active_isa()) << ", median of "
              << kPaperRuns << " images) --\n";
    eval::print_table(std::cout,
                      {"threads", "median s/image", "min s", "max s"},
                      paper_table);
  }

  std::ofstream json("BENCH_throughput.json");
  json << "{\n  \"grid_size\": " << kGrid
       << ",\n  \"num_subbands\": " << kSubbands
       << ",\n  \"images_per_config\": " << kImages
       << ",\n  \"hardware_threads\": " << hw << ",\n  \"smoke\": "
       << json_bool(smoke) << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Measurement& m = results[i];
    json << "    {\"threads\": " << m.threads
         << ", \"images_per_sec\": " << m.images_per_sec
         << ", \"speedup_vs_serial\": " << m.speedup_vs_serial
         << ", \"cpu_per_wall\": " << m.cpu_per_wall
         << ", \"bit_identical\": " << json_bool(m.bit_identical) << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"simd\": {\n    \"active\": \""
       << simd::isa_name(simd::best_isa()) << "\",\n    \"lanes\": [\n";
  for (std::size_t i = 0; i < lane_results.size(); ++i) {
    const LaneResult& r = lane_results[i];
    json << "      {\"isa\": \"" << r.isa
         << "\", \"images_per_sec\": " << r.images_per_sec
         << ", \"speedup_vs_scalar\": " << r.speedup_vs_scalar
         << ", \"bit_identical\": " << json_bool(r.bit_identical) << "}"
         << (i + 1 < lane_results.size() ? "," : "") << "\n";
  }
  json << "    ],\n    \"paper_scale\": {\"grid_size\": 180, "
       << "\"num_subbands\": 5, \"runs\": " << kPaperRuns
       << ", \"rows\": [";
  for (std::size_t i = 0; i < paper_rows.size(); ++i) {
    const PaperRow& r = paper_rows[i];
    json << (i > 0 ? ", " : "") << "{\"threads\": " << r.threads
         << ", \"median_seconds_per_image\": " << r.median_s
         << ", \"min_s\": " << r.min_s << ", \"max_s\": " << r.max_s << "}";
  }
  json << "]}\n  },\n";
  json << "  \"determinism_pass\": " << json_bool(deterministic)
       << ",\n  \"lane_pass\": " << json_bool(lanes_ok)
       << ",\n  \"scaling_pass\": "
       << (scaling_applicable ? json_bool(scaling_ok) : "\"skipped\"")
       << "\n}\n";
  std::cout << "\nwrote BENCH_throughput.json\n";

  // One instrumented render, outside the timed sweep: where a single image
  // spends its time, band by band and row by row.
  {
    core::ImagingConfig cfg = base;
    cfg.num_threads = 1;
    core::AcousticImager imager(cfg, geometry);
    obs::ObservabilityConfig obs_cfg;
    obs_cfg.enabled = true;
    obs_cfg.workers = 1;
    const auto obs = obs::make_observability(obs_cfg);
    imager.attach_observability(obs);
    (void)imager.construct_bands(batch.beeps[0], echoimage::units::Meters{0.7},
                                 0.0002, batch.noise_only);
    std::ofstream trace("BENCH_throughput_trace.json");
    trace << obs->tracer().chrome_trace_json();
    std::cout << "\n-- instrumented render (per span) --\n"
              << obs->tracer().summary()
              << "\nwrote BENCH_throughput_trace.json\n";
  }

  return deterministic && lanes_ok && (!scaling_applicable || scaling_ok)
             ? 0
             : 1;
}
