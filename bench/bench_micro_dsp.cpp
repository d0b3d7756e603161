// Micro-benchmarks of the DSP kernels the imager and the CNN run per
// capture, swept across every ISA lane this machine supports (forced via
// simd::ScopedIsa), with the scalar lane as the baseline. The gate
// covariance, the sweep row and the convolution row dispatch through the
// kernel table (the SSE2 lane reuses the scalar entries for all three);
// the packed form and the incoherent energy are plain scalar code outside
// it, so their rows read the same on every lane. The lanes of a kernel
// are timed round-robin within each repeat, so a swing in host speed
// lands on every lane alike instead of reading as a lane speedup. For
// each kernel x lane the harness reports ns/op and the speedup over
// scalar, and cross-checks that the lane reproduced the scalar output bit
// for bit — a benchmark that quietly measured different numbers would be
// worthless.
//
// Writes BENCH_micro_dsp.json into the working directory (copied to the
// repo root by tools/run_bench_smoke.sh). `--smoke` shrinks repetitions.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <numbers>
#include <random>
#include <string>
#include <vector>

#include "array/beamformer.hpp"
#include "array/covariance.hpp"
#include "dsp/butterworth.hpp"
#include "dsp/chirp.hpp"
#include "dsp/fft.hpp"
#include "dsp/hilbert.hpp"
#include "dsp/matched_filter.hpp"
#include "eval/table.hpp"
#include "ml/cnn.hpp"
#include "simd/isa.hpp"
#include "simd/kernels.hpp"

namespace {

using namespace echoimage;
using Complex = std::complex<double>;

dsp::Signal random_signal(std::size_t n, unsigned seed) {
  std::mt19937 gen(seed);
  std::normal_distribution<double> d(0.0, 1.0);
  dsp::Signal x(n);
  for (double& v : x) v = d(gen);
  return x;
}

/// One benchmarked operation: `run` executes the workload once and folds
/// a few output bits into a digest (the cross-lane bit-exactness check —
/// and a data dependency the optimizer cannot delete).
struct Kernel {
  std::string name;
  std::size_t n = 0;  ///< problem size, for the report
  std::function<std::uint64_t()> run;
};

std::uint64_t digest(const double* x, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= std::bit_cast<std::uint64_t>(x[i]);
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t digest(const Complex* x, std::size_t n) {
  return digest(reinterpret_cast<const double*>(x), 2 * n);
}

/// Per lane, the median over `repeats` rounds of ns per operation. Each
/// round runs the op `inner` times on every lane in turn, enough to
/// outlast timer noise.
std::vector<double> time_lanes_ns(const std::function<std::uint64_t()>& run,
                                  const std::vector<simd::Isa>& lanes,
                                  std::size_t inner, std::size_t repeats,
                                  std::uint64_t& sink) {
  std::vector<std::vector<double>> samples(lanes.size());
  for (std::size_t r = 0; r < repeats; ++r) {
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      simd::ScopedIsa forced(lanes[l]);
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < inner; ++i) sink ^= run();
      const std::chrono::duration<double, std::nano> elapsed =
          std::chrono::steady_clock::now() - start;
      samples[l].push_back(elapsed.count() / static_cast<double>(inner));
    }
  }
  std::vector<double> medians;
  for (std::vector<double>& lane : samples) {
    std::sort(lane.begin(), lane.end());
    medians.push_back(lane[lane.size() / 2]);
  }
  return medians;
}

std::uint64_t digest(const std::vector<dsp::Signal>& channels) {
  std::uint64_t h = 0;
  for (const dsp::Signal& ch : channels) h ^= digest(ch.data(), ch.size());
  return h;
}

std::vector<Kernel> make_kernels() {
  std::vector<Kernel> kernels;

  // FFT, radix-2 path (the imaging chain's workhorse transform: 4,096
  // points per beep transform, 2,048 per noise transform).
  for (const std::size_t n : {1024u, 2048u, 4096u}) {
    dsp::ComplexSignal x(n);
    for (std::size_t i = 0; i < n; ++i)
      x[i] = Complex(std::sin(0.1 * static_cast<double>(i)), 0.0);
    kernels.push_back({"fft_pow2", n, [x, n]() {
                         dsp::ComplexSignal y = x;
                         dsp::fft_pow2_in_place(y, false);
                         return digest(y.data(), n);
                       }});
  }

  // Zero-phase filtering as the imager runs it, every channel of a
  // six-channel beep in lockstep: the probing band-pass (once per beep),
  // then the order-2 subband filter (once per beep and band, on the pool).
  {
    const auto bandpass =
        dsp::butterworth_bandpass(4, 2000.0, 3000.0, 48000.0);
    std::vector<dsp::Signal> chans;
    for (unsigned c = 0; c < 6; ++c)
      chans.push_back(random_signal(2880, 10 + c));
    kernels.push_back({"filtfilt_6ch", 6 * 2880, [bandpass, chans]() {
                         return digest(bandpass.filtfilt_multi(chans));
                       }});
    const auto subband =
        dsp::butterworth_bandpass(2, 2000.0, 2200.0, 48000.0);
    kernels.push_back({"subband_filtfilt_6ch", 6 * 2880, [subband, chans]() {
                         return digest(subband.filtfilt_multi(chans));
                       }});
  }

  // Analytic signal of one subband channel.
  {
    const dsp::Signal x = random_signal(2880, 2);
    kernels.push_back({"analytic_signal", 2880, [x]() {
                         const auto y = dsp::analytic_signal(x);
                         return digest(y.data(), y.size());
                       }});
  }

  // Pulse compression against a template spectrum computed once per
  // capture, as the imager runs it for every channel of every beep.
  {
    const dsp::Signal x = random_signal(2880, 3);
    const auto a = dsp::analytic_signal(x);
    const auto tmpl = dsp::Chirp(dsp::ChirpParams{}).sample(48000.0);
    const auto spectrum = dsp::template_spectrum(
        tmpl, dsp::matched_filter_fft_length(a.size(), tmpl.size()));
    kernels.push_back({"matched_filter_spectrum", 2880, [a, spectrum]() {
                         const auto y =
                             dsp::matched_filter_complex(a, spectrum);
                         return digest(y.data(), y.size());
                       }});
  }

  // The whole per-beep front end of the default five-band imager, serially:
  // one six-channel, 2,880-sample beep band-passed in lockstep, then per
  // band the subband filter in lockstep and, per channel, the analytic
  // signal and the matched filter against the band's template spectrum.
  {
    const std::size_t bands = 5;
    const auto bandpass =
        dsp::butterworth_bandpass(4, 2000.0, 3000.0, 48000.0);
    const dsp::Signal chirp = dsp::Chirp(dsp::ChirpParams{}).sample(48000.0);
    const std::size_t fft = dsp::matched_filter_fft_length(2880, chirp.size());
    std::vector<dsp::SosCascade> subbands;
    std::vector<dsp::ComplexSignal> spectra;
    for (std::size_t b = 0; b < bands; ++b) {
      const double lo = 2000.0 + 200.0 * static_cast<double>(b);
      subbands.push_back(dsp::butterworth_bandpass(2, lo, lo + 200.0, 48000.0));
      spectra.push_back(
          dsp::template_spectrum(subbands.back().filtfilt(chirp), fft));
    }
    std::vector<dsp::Signal> beep;
    for (unsigned c = 0; c < 6; ++c)
      beep.push_back(random_signal(2880, 50 + c));
    kernels.push_back(
        {"front_end_beep", 6 * 2880, [bandpass, subbands, spectra, beep]() {
           const std::vector<dsp::Signal> filtered =
               bandpass.filtfilt_multi(beep);
           std::uint64_t h = 0;
           for (std::size_t b = 0; b < subbands.size(); ++b) {
             for (const dsp::Signal& ch :
                  subbands[b].filtfilt_multi(filtered)) {
               const dsp::ComplexSignal y = dsp::matched_filter_complex(
                   dsp::analytic_signal(ch), spectra[b]);
               h ^= digest(y.data(), y.size());
             }
           }
           return h;
         }});
  }

  // The sweep's energy terms on 6 channels x 2880 snapshots: the gate
  // covariance R_g of one 144-sample gate (a +/-1.5 ms range gate at
  // 48 kHz; formed once per distinct gate, band and beep) from the
  // window's per-sample products, its packed MVDR form
  // B_g = (R^-1)^H R_g R^-1 (built right after it), one 180-pixel sweep
  // row over 5 bands and 2 beeps (the pixels' gates follow their distance
  // across a paper-scale row; the ladder roots are formed outside the
  // timed call, as the imager does before each row's kernel call), and
  // the incoherent energy over the whole window.
  {
    const std::size_t len = 2880, m = 6, gate = 144, bands = 5, beeps = 2;
    std::vector<dsp::ComplexSignal> chans(m);
    std::mt19937 gen(4);
    std::normal_distribution<double> d(0.0, 1.0);
    for (auto& ch : chans) {
      ch.resize(len);
      for (auto& v : ch) v = Complex(d(gen), d(gen));
    }
    const array::CMatrix noise_cov =
        array::normalized_covariance(chans, 0, len);
    std::vector<array::WeightSolver> solvers;
    for (std::size_t b = 0; b < bands; ++b)
      solvers.emplace_back(
          array::make_respeaker_array(), noise_cov,
          units::Hertz{2100.0 + 200.0 * static_cast<double>(b)});
    const auto products = std::make_shared<array::GateProducts>(chans);
    kernels.push_back({"gate_covariance", m * gate, [products, gate]() {
                         const auto r = products->covariance(1000, gate);
                         return digest(
                             reinterpret_cast<const double*>(r.data().data()),
                             2 * r.data().size());
                       }});
    const std::size_t form_size = array::packed_form_size(m);
    const auto r = products->covariance(1000, gate);
    kernels.push_back({"packed_gate_form", m * m, [solvers, r, form_size]() {
                         std::vector<double> form(form_size);
                         solvers.front().pack_gate_form(r, true, form.data());
                         return digest(form.data(), form.size());
                       }});
    // The row: pixel p of a 180-pixel row of the 1 cm grid, 0.7 m away,
    // 0.3 m off the array's axis; its gate is its round-trip delay in
    // samples past the row's nearest pixel. Each (beep, band) slot packs
    // one form per gate from a gate covariance of its own.
    const std::size_t pixels = 180;
    const array::ArrayGeometry geom = array::make_respeaker_array();
    const double k0 = 2.0 * std::numbers::pi * 2100.0 / array::kSpeedOfSound;
    const double dk = 2.0 * std::numbers::pi * 200.0 / array::kSpeedOfSound;
    std::vector<std::uint32_t> gates(pixels);
    std::vector<double> base(pixels * 2 * m), step(pixels * 2 * m);
    std::vector<double> delays(pixels);
    for (std::size_t p = 0; p < pixels; ++p) {
      const array::Vec3 point{0.01 * (static_cast<double>(p) - 89.5), 0.7,
                              0.3};
      delays[p] = 2.0 * point.norm() / array::kSpeedOfSound * 48000.0;
      array::ladder_roots(geom, point.normalized(), k0, dk, bands,
                          base.data() + p * 2 * m, step.data() + p * 2 * m);
    }
    const double nearest = *std::min_element(delays.begin(), delays.end());
    for (std::size_t p = 0; p < pixels; ++p)
      gates[p] = static_cast<std::uint32_t>(std::lround(delays[p] - nearest));
    const std::size_t num_gates =
        *std::max_element(gates.begin(), gates.end()) + 1;
    std::vector<std::vector<double>> forms(
        bands * beeps, std::vector<double>(num_gates * form_size));
    std::vector<std::vector<double>> incoherent(
        bands * beeps, std::vector<double>(num_gates));
    for (std::size_t slot = 0; slot < bands * beeps; ++slot) {
      for (std::size_t g = 0; g < num_gates; ++g) {
        const std::size_t first = 200 + 7 * slot + 3 * g;
        solvers[slot % bands].pack_gate_form(
            products->covariance(first, gate), true,
            forms[slot].data() + g * form_size);
        incoherent[slot][g] = array::incoherent_energy(chans, first, gate);
      }
    }
    kernels.push_back(
        {"closed_form_row", pixels * bands * beeps,
         [solvers, forms, incoherent, gates, base, step, m, pixels]() {
           const std::size_t slots = forms.size();
           std::vector<const double*> inverse, form_ptrs, inc_ptrs;
           for (const array::WeightSolver& s : solvers)
             inverse.push_back(s.packed_inverse());
           for (std::size_t slot = 0; slot < slots; ++slot) {
             form_ptrs.push_back(forms[slot].data());
             inc_ptrs.push_back(incoherent[slot].data());
           }
           std::vector<double> energy(slots * pixels, 0.0);
           std::vector<double*> out;
           for (std::size_t slot = 0; slot < slots; ++slot)
             out.push_back(energy.data() + slot * pixels);
           simd::SweepRow row;
           row.pixels = pixels;
           row.mics = m;
           row.bands = solvers.size();
           row.beeps = slots / solvers.size();
           row.base = base.data();
           row.step = step.data();
           row.gate = gates.data();
           row.inverse = inverse.data();
           row.forms = form_ptrs.data();
           row.incoherent = inc_ptrs.data();
           row.out = out.data();
           row.mix = 0.85;
           simd::kernels().closed_form_row_f64(row);
           return digest(energy.data(), energy.size());
         }});
    kernels.push_back({"incoherent_energy", m * len, [chans, len]() {
                         const double e =
                             array::incoherent_energy(chans, 0, len);
                         return std::bit_cast<std::uint64_t>(e);
                       }});
  }

  // The CNN: one output row of the default extractor's second layer (8 to
  // 16 channels over a 24-wide map, the conv kernel's unit of work), and
  // one whole 48x48 extract (four conv blocks, activations and pooling).
  {
    const std::size_t width = 24, in = 8, out = 16;
    std::mt19937 gen(6);
    std::normal_distribution<double> d(0.0, 1.0);
    std::vector<double> input(3 * width * in), weights(9 * in * out),
        bias(out, 0.0);
    for (double& v : input) v = d(gen) < -0.5 ? 0.0 : d(gen);
    for (double& v : weights) v = d(gen);
    kernels.push_back(
        {"conv3x3_row", width * out, [input, weights, bias, width]() {
           const simd::Conv3x3 conv{input.data(), 3,   width,      in,
                                    out,          weights.data(), bias.data()};
           std::vector<double> y(width * out);
           simd::kernels().conv3x3_row_f64(conv, 1, y.data());
           return digest(y.data(), y.size());
         }});
    ml::Matrix2D image(48, 48);
    for (double& v : image.data()) v = std::abs(d(gen));
    const auto extractor = std::make_shared<ml::VggishFeatureExtractor>();
    kernels.push_back({"cnn_extract_48", 48 * 48, [extractor, image]() {
                         const std::vector<double> f =
                             extractor->extract(image);
                         return digest(f.data(), f.size());
                       }});
  }

  return kernels;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;

  const std::size_t inner = smoke ? 3 : 20;
  const std::size_t repeats = smoke ? 3 : 9;

  const std::vector<simd::Isa> lanes = simd::supported_isas();
  std::cout << "== DSP kernel micro-bench: ISA lane sweep ==\n(lanes:";
  for (const simd::Isa isa : lanes) std::cout << ' ' << simd::isa_name(isa);
  std::cout << (smoke ? ", SMOKE" : "") << ")\n\n";

  struct LaneTiming {
    std::string isa;
    double ns_per_op = 0.0;
    double speedup_vs_scalar = 0.0;
    bool bit_identical = false;
  };
  struct KernelReport {
    std::string name;
    std::size_t n = 0;
    std::vector<LaneTiming> lanes;
  };

  const std::vector<Kernel> kernels = make_kernels();
  std::vector<KernelReport> reports;
  std::vector<std::vector<std::string>> rows;
  std::uint64_t sink = 0;
  bool all_bit_identical = true;

  for (const Kernel& k : kernels) {
    KernelReport report;
    report.name = k.name;
    report.n = k.n;
    std::vector<std::uint64_t> digests;
    for (const simd::Isa isa : lanes) {
      simd::ScopedIsa forced(isa);
      digests.push_back(k.run());
    }
    const std::vector<double> ns = time_lanes_ns(k.run, lanes, inner,
                                                 repeats, sink);
    // supported_isas() lists the scalar lane first.
    const double scalar_ns = ns.front();
    const std::uint64_t scalar_digest = digests.front();
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      LaneTiming t;
      t.isa = simd::isa_name(lanes[l]);
      t.ns_per_op = ns[l];
      t.speedup_vs_scalar =
          t.ns_per_op > 0.0 ? scalar_ns / t.ns_per_op : 0.0;
      // Every lane must replay the scalar bits exactly.
      t.bit_identical = (digests[l] == scalar_digest);
      all_bit_identical &= t.bit_identical;
      report.lanes.push_back(t);
      rows.push_back({k.name, std::to_string(k.n), t.isa,
                      eval::fmt(t.ns_per_op), eval::fmt(t.speedup_vs_scalar),
                      t.bit_identical ? "yes" : "NO"});
    }
    reports.push_back(std::move(report));
    std::cerr << '.' << std::flush;
  }
  std::cerr << '\n';

  eval::print_table(
      std::cout,
      {"kernel", "n", "isa", "ns/op", "speedup", "bit-identical"}, rows);
  std::cout << "\ncross-lane bit-exactness: "
            << (all_bit_identical ? "PASS" : "FAIL") << "\n(sink "
            << (sink & 0xF) << ")\n";

  std::ofstream json("BENCH_micro_dsp.json");
  json << "{\n  \"smoke\": " << (smoke ? "true" : "false")
       << ",\n  \"best_isa\": \"" << simd::isa_name(simd::best_isa())
       << "\",\n  \"kernels\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const KernelReport& r = reports[i];
    json << "    {\"name\": \"" << r.name << "\", \"n\": " << r.n
         << ", \"lanes\": [";
    for (std::size_t l = 0; l < r.lanes.size(); ++l) {
      const LaneTiming& t = r.lanes[l];
      json << "{\"isa\": \"" << t.isa << "\", \"ns_per_op\": " << t.ns_per_op
           << ", \"speedup_vs_scalar\": " << t.speedup_vs_scalar
           << ", \"bit_identical\": " << (t.bit_identical ? "true" : "false")
           << "}" << (l + 1 < r.lanes.size() ? ", " : "");
    }
    json << "]}" << (i + 1 < reports.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"bit_exactness_pass\": "
       << (all_bit_identical ? "true" : "false") << "\n}\n";
  std::cout << "wrote BENCH_micro_dsp.json\n";

  return all_bit_identical ? 0 : 1;
}
