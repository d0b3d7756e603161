#include "array/beamformer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numbers>
#include <random>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "array/covariance.hpp"
#include "dsp/chirp.hpp"
#include "dsp/hilbert.hpp"
#include "dsp/matched_filter.hpp"
#include "sim/scene.hpp"
#include "simd/kernels.hpp"

namespace echoimage::array {
namespace {

using echoimage::dsp::Complex;
using echoimage::dsp::ComplexSignal;
using echoimage::dsp::MultiChannelSignal;
using echoimage::dsp::Signal;

constexpr double kPi = std::numbers::pi;
constexpr double kFs = 48000.0;
constexpr units::Hertz kF0{2500.0};

// Simulate a far-field tone arriving from `dir` on the given geometry.
MultiChannelSignal plane_wave_tone(const ArrayGeometry& g, const Direction& dir,
                                   units::Hertz freq, std::size_t n,
                                   double noise_std = 0.0, unsigned seed = 1) {
  const std::vector<double> taus = tdoas(g, dir);
  std::mt19937 gen(seed);
  std::normal_distribution<double> d(0.0, 1.0);
  MultiChannelSignal x;
  x.channels.resize(g.num_mics());
  for (std::size_t m = 0; m < g.num_mics(); ++m) {
    x.channels[m].resize(n);
    for (std::size_t t = 0; t < n; ++t) {
      const double time = static_cast<double>(t) / kFs - taus[m];
      x.channels[m][t] = std::cos(2.0 * kPi * freq.value() * time) +
                         noise_std * d(gen);
    }
  }
  return x;
}

// Weights toward `dir` from a solver: MVDR (paper Eq. 8, against the
// solver's covariance loaded by 1e-3) or delay-and-sum.
std::vector<Complex> weights(const WeightSolver& solver, const Direction& dir,
                             bool mvdr = true) {
  std::vector<Complex> steering, w;
  solver.compute_weights(dir, mvdr, steering, w);
  return w;
}

// Analytic signal of every channel of a real capture.
std::vector<ComplexSignal> analytic_channels(const MultiChannelSignal& x) {
  std::vector<ComplexSignal> out;
  for (const Signal& c : x.channels)
    out.push_back(echoimage::dsp::analytic_signal(c));
  return out;
}

// The per-sample sum the gate covariance replaces, kept here as the
// oracle: sum over t in the clipped gate of |w^H x(t)|^2.
double per_sample_energy(const std::vector<ComplexSignal>& x,
                         const std::vector<Complex>& w, std::size_t first,
                         std::size_t count) {
  double e = 0.0;
  for (std::size_t t = first; t < first + count && t < x.front().size();
       ++t) {
    Complex y(0.0, 0.0);
    for (std::size_t c = 0; c < x.size(); ++c) y += std::conj(w[c]) * x[c][t];
    e += std::norm(y);
  }
  return e;
}

// The quadratic form the imager read per pixel before its closed form,
// kept here as the oracle: w^H R_g w = sum_i Re(conj(w_i) a_i) with a_i =
// sum_j R_g[i][j] w_j, i and j ascending, in real arithmetic with the
// roundings of the std::complex products.
double gated_energy(const CMatrix& gate_covariance,
                    const std::vector<Complex>& w) {
  const std::size_t m = w.size();
  if (gate_covariance.rows() != m || gate_covariance.cols() != m)
    throw std::invalid_argument("gated_energy: weight/covariance mismatch");
  const Complex* row = gate_covariance.data().data();
  double q = 0.0;
  for (std::size_t i = 0; i < m; ++i, row += m) {
    double are = 0.0, aim = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      are += row[j].real() * w[j].real() - row[j].imag() * w[j].imag();
      aim += row[j].real() * w[j].imag() + row[j].imag() * w[j].real();
    }
    q += w[i].real() * are + w[i].imag() * aim;
  }
  return q;
}

TEST(MvdrWeights, DistortionlessConstraint) {
  const ArrayGeometry g = make_respeaker_array();
  const Direction d{kPi / 2.0, 1.2};
  const auto a = steering_vector_hz(g, d, kF0);
  const auto w = weights(WeightSolver(g, white_noise_covariance(6), kF0), d);
  // w^H a = 1 is MVDR's defining constraint (Eq. 8 denominator).
  const Complex resp = echoimage::linalg::hdot(w, a);
  EXPECT_NEAR(std::abs(resp - Complex(1.0, 0.0)), 0.0, 1e-9);
}

TEST(MvdrWeights, WhiteNoiseReducesToDelayAndSum) {
  const ArrayGeometry g = make_respeaker_array();
  const WeightSolver solver(g, white_noise_covariance(6), kF0);
  const Direction d{0.3, 1.0};
  const auto w_mvdr = weights(solver, d);
  const auto w_das = weights(solver, d, false);
  for (std::size_t m = 0; m < 6; ++m)
    EXPECT_NEAR(std::abs(w_mvdr[m] - w_das[m]), 0.0, 1e-9);
}

TEST(MvdrWeights, NullsDirectionalInterference) {
  const ArrayGeometry g = make_respeaker_array();
  const Direction look{kPi / 2.0, kPi / 2.0};
  const Direction interferer{0.0, kPi / 2.0};  // 90 degrees away
  const auto a_look = steering_vector_hz(g, look, kF0);
  const auto a_int = steering_vector_hz(g, interferer, kF0);
  // Noise covariance dominated by the interferer + small white floor.
  CMatrix r = echoimage::linalg::outer(a_int, a_int);
  for (std::size_t i = 0; i < 6; ++i) r(i, i) += Complex(0.01, 0.0);
  const auto w = weights(WeightSolver(g, r, kF0), look);
  const double gain_look =
      std::abs(echoimage::linalg::hdot(w, a_look));
  const double gain_int = std::abs(echoimage::linalg::hdot(w, a_int));
  EXPECT_NEAR(gain_look, 1.0, 1e-6);
  EXPECT_LT(gain_int, 0.05);  // interferer suppressed by > 26 dB
}

TEST(MvdrWeights, ShapeMismatchThrows) {
  EXPECT_THROW(
      WeightSolver(make_respeaker_array(), white_noise_covariance(4), kF0),
      std::invalid_argument);
}

TEST(DasWeights, AverageOfSteeringPhases) {
  const auto a = std::vector<Complex>{{1.0, 0.0}, {0.0, 1.0}};
  const auto w = das_weights(a);
  EXPECT_NEAR(std::abs(w[0] - Complex(0.5, 0.0)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(w[1] - Complex(0.0, 0.5)), 0.0, 1e-12);
}

TEST(ApplyWeights, MismatchThrows) {
  EXPECT_THROW((void)apply_weights(std::vector<ComplexSignal>(3),
                                   std::vector<Complex>(2)),
               std::invalid_argument);
}

TEST(ApplyWeights, SumsWeightedChannels) {
  std::vector<ComplexSignal> ch{
      ComplexSignal{{1.0, 0.0}}, ComplexSignal{{0.0, 1.0}}};
  const std::vector<Complex> w{{1.0, 0.0}, {1.0, 0.0}};
  const ComplexSignal y = apply_weights(ch, w);
  ASSERT_EQ(y.size(), 1u);
  EXPECT_NEAR(std::abs(y[0] - Complex(1.0, 1.0)), 0.0, 1e-12);
}

TEST(Beamformer, SteerRecoversToneFromLookDirection) {
  const ArrayGeometry g = make_respeaker_array();
  const Direction src{kPi / 2.0, kPi / 2.0};
  const MultiChannelSignal x = plane_wave_tone(g, src, kF0, 1024);
  const WeightSolver solver(g, white_noise_covariance(g.num_mics()), kF0);
  const ComplexSignal y =
      apply_weights(analytic_channels(x), weights(solver, src));
  // Steered output magnitude ~ tone amplitude 1.0 in steady state.
  double acc = 0.0;
  for (std::size_t t = 256; t < 768; ++t) acc += std::abs(y[t]);
  EXPECT_NEAR(acc / 512.0, 1.0, 0.05);
}

TEST(Beamformer, SteeredEnergyWindowed) {
  const ArrayGeometry g = make_respeaker_array();
  const Direction src{kPi / 2.0, kPi / 2.0};
  const std::vector<ComplexSignal> x =
      analytic_channels(plane_wave_tone(g, src, kF0, 1024));
  const WeightSolver solver(g, white_noise_covariance(g.num_mics()), kF0);
  const GateProducts products(x);
  const CMatrix r = products.covariance(256, 512);
  const double e_full = gated_energy(r, weights(solver, src));
  // |analytic tone|^2 = 1 per sample.
  EXPECT_NEAR(e_full, 512.0, 30.0);
  const double e_das = gated_energy(r, weights(solver, src, false));
  EXPECT_NEAR(e_das, e_full, 40.0);
  // Out-of-range window is empty.
  EXPECT_DOUBLE_EQ(
      gated_energy(products.covariance(5000, 10), weights(solver, src)),
      0.0);
}

// The scene both gate-energy oracles run on: a noisy plane-wave tone from
// `src` on the ReSpeaker array as raw and pulse-compressed analytic
// channels (600 samples), a separate noise covariance, channels 1 and 4
// masked out for the degraded case, and gates inside the window, clipped
// at its end, starting past it, and empty.
struct OracleScene {
  ArrayGeometry g = make_respeaker_array();
  Direction src{1.1, 1.3};
  std::vector<ComplexSignal> raw, compressed;
  CMatrix noise_cov;
  ChannelMask degraded;
  std::vector<std::pair<std::size_t, std::size_t>> gates = {
      {0, 600}, {37, 144}, {300, 1}, {512, 88}, {520, 200}, {599, 5},
      {600, 10}, {700, 50}, {10, 0}};

  OracleScene() : degraded(g.num_mics(), true) {
    const MultiChannelSignal x = plane_wave_tone(g, src, kF0, 600, 0.3, 5);
    const dsp::Signal chirp = dsp::Chirp(dsp::ChirpParams{}).sample(kFs);
    for (const Signal& c : x.channels) {
      raw.push_back(echoimage::dsp::analytic_signal(c));
      compressed.push_back(
          echoimage::dsp::matched_filter_complex(raw.back(), chirp));
      compressed.back().resize(600);
    }
    std::mt19937 gen(9);
    std::normal_distribution<double> d(0.0, 1.0);
    MultiChannelSignal noise;
    noise.channels.assign(g.num_mics(), Signal(2048));
    for (Signal& c : noise.channels)
      for (double& v : c) v = d(gen);
    noise_cov = noise_covariance_of(noise);
    degraded[1] = false;
    degraded[4] = false;
  }
};

TEST(Beamformer, GatedEnergyMatchesThePerSampleOracle) {
  // w^H R_g w against the per-sample sum, within 1e-12 * |w|^2 * tr(R_g),
  // on pulse-compressed and raw gates, gates clipped at or starting past
  // the window end, MVDR and delay-and-sum weights, full and degraded
  // arrays. Zero-energy gates must read exactly zero.
  const OracleScene scene;
  const std::vector<Direction> looks = {scene.src, {2.0, 0.7}, {kPi, 1.5}};
  double worst = 0.0;
  for (const std::vector<ComplexSignal>* chans :
       {&scene.raw, &scene.compressed}) {
    for (const ChannelMask& mask : {ChannelMask{}, scene.degraded}) {
      const WeightSolver solver(scene.g, scene.noise_cov, kF0,
                                kSpeedOfSoundMps, mask);
      std::vector<ComplexSignal> active;
      for (std::size_t c = 0; c < chans->size(); ++c)
        if (mask.empty() || mask[c]) active.push_back((*chans)[c]);
      const GateProducts products(active);
      for (const auto& [first, count] : scene.gates) {
        const CMatrix r = products.covariance(first, count);
        ASSERT_EQ(r.rows(), active.size());
        double trace = 0.0;
        for (std::size_t i = 0; i < r.rows(); ++i) trace += r(i, i).real();
        for (const Direction& look : looks) {
          for (const bool mvdr : {true, false}) {
            const std::vector<Complex> w = weights(solver, look, mvdr);
            double w2 = 0.0;
            for (const Complex& v : w) w2 += std::norm(v);
            const double want = per_sample_energy(active, w, first, count);
            const double got = gated_energy(r, w);
            if (trace == 0.0) {
              EXPECT_EQ(got, 0.0) << "gate " << first << "+" << count;
              continue;
            }
            const double err = std::abs(got - want) / (w2 * trace);
            worst = std::max(worst, err);
            EXPECT_LE(err, 1e-12)
                << "gate " << first << "+" << count << " mvdr " << mvdr
                << " masked " << !mask.empty();
          }
        }
      }
    }
  }
  std::ostringstream worst_text;
  worst_text << worst;
  RecordProperty("worst_relative_error", worst_text.str());
}

TEST(Beamformer, ClosedFormPixelEnergyMatchesTheWeightOracle) {
  // The imager's pixel, e = (1 - mix) a^H B_g a / den^2 + mix * incoherent
  // from the gate's packed form and the pixel's steering on the subband
  // ladder, through the sweep kernel the imager calls (one row, one pixel
  // per look), against the weight path it replaced, e = (1 - mix)
  // w^H R_g w + mix * incoherent with w from each band's compute_weights:
  // MVDR and delay-and-sum, full and degraded arrays, pulse-compressed and
  // raw gates, gates clipped at or starting past the window end, every
  // band of a 5-band ladder, mix 0, 0.85 and 1. Bound: |closed - oracle|
  // <= 1e-12 (1 - mix) |w|^2 tr(R_g), the scale of the quadratic form. An
  // empty gate reads exactly zero, and at mix = 1 the coherent term is
  // never formed, so both paths agree bit for bit.
  const OracleScene scene;
  // The imager's default ladder: five 200 Hz subbands of 2-3 kHz.
  const std::size_t bands = 5;
  const double f0 = 2100.0, df = 200.0;
  const double k0 = 2.0 * kPi * f0 / kSpeedOfSound;
  const double dk = 2.0 * kPi * df / kSpeedOfSound;
  std::vector<Direction> looks = {scene.src, {2.0, 0.7}, {kPi, 1.5}};
  for (double theta = 0.9; theta < 2.3; theta += 0.35)
    for (double phi = 0.9; phi < 2.3; phi += 0.35)
      looks.push_back({theta, phi});
  const std::size_t pixels = looks.size();
  const std::vector<std::uint32_t> gate(pixels, 0);
  double worst = 0.0;
  for (const ChannelMask& mask : {ChannelMask{}, scene.degraded}) {
    const ArrayGeometry subarray = scene.g.subarray(mask);
    const std::size_t m = subarray.num_mics();
    std::vector<WeightSolver> solvers;
    std::vector<const double*> inverse;
    for (std::size_t b = 0; b < bands; ++b) {
      solvers.emplace_back(scene.g, scene.noise_cov,
                           units::Hertz{f0 + df * static_cast<double>(b)},
                           kSpeedOfSoundMps, mask);
      inverse.push_back(solvers.back().packed_inverse());
    }
    std::vector<double> base(pixels * 2 * m), step(pixels * 2 * m);
    for (std::size_t l = 0; l < pixels; ++l)
      ladder_roots(subarray, line_of_sight(looks[l]), k0, dk, bands,
                   base.data() + l * 2 * m, step.data() + l * 2 * m);
    for (const std::vector<ComplexSignal>* chans :
         {&scene.raw, &scene.compressed}) {
      std::vector<ComplexSignal> active;
      for (std::size_t c = 0; c < chans->size(); ++c)
        if (mask.empty() || mask[c]) active.push_back((*chans)[c]);
      ASSERT_EQ(active.size(), m);
      const GateProducts products(active);
      for (const auto& [first, count] : scene.gates) {
        const CMatrix r = products.covariance(first, count);
        const double incoherent = incoherent_energy(active, first, count);
        double trace = 0.0;
        for (std::size_t i = 0; i < m; ++i) trace += r(i, i).real();
        for (const bool mvdr : {true, false}) {
          // One beep: slot b is band b, with this gate's form.
          std::vector<std::vector<double>> form(
              bands, std::vector<double>(packed_form_size(m)));
          std::vector<const double*> forms, incoherents;
          for (std::size_t b = 0; b < bands; ++b) {
            solvers[b].pack_gate_form(r, mvdr, form[b].data());
            forms.push_back(form[b].data());
            incoherents.push_back(&incoherent);
          }
          for (const double mix : {0.0, 0.85, 1.0}) {
            std::vector<std::vector<double>> energy(
                bands, std::vector<double>(pixels, 0.0));
            std::vector<double*> out;
            for (std::vector<double>& e : energy) out.push_back(e.data());
            echoimage::simd::SweepRow row;
            row.pixels = pixels;
            row.mics = m;
            row.bands = bands;
            row.beeps = 1;
            row.base = base.data();
            row.step = step.data();
            row.gate = gate.data();
            row.inverse = mvdr ? inverse.data() : nullptr;
            row.forms = forms.data();
            row.incoherent = incoherents.data();
            row.out = out.data();
            row.mix = mix;
            echoimage::simd::kernels().closed_form_row_f64(row);
            for (std::size_t l = 0; l < pixels; ++l) {
              for (std::size_t b = 0; b < bands; ++b) {
                const std::vector<Complex> w =
                    weights(solvers[b], looks[l], mvdr);
                double w2 = 0.0;
                for (const Complex& v : w) w2 += std::norm(v);
                // The imager's accumulation order, on the oracle's term.
                double want = 0.0;
                if (mix < 1.0) want += (1.0 - mix) * gated_energy(r, w);
                if (mix > 0.0) want += mix * incoherent;
                const double got = energy[b][l];
                if (trace == 0.0 || mix == 1.0) {
                  EXPECT_EQ(got, want) << "gate " << first << "+" << count;
                  if (trace == 0.0) {
                    EXPECT_EQ(got, 0.0);
                  }
                  continue;
                }
                const double err =
                    std::abs(got - want) / ((1.0 - mix) * w2 * trace);
                worst = std::max(worst, err);
                EXPECT_LE(err, 1e-12)
                    << "gate " << first << "+" << count << " band " << b
                    << " mvdr " << mvdr << " masked " << !mask.empty()
                    << " mix " << mix;
              }
            }
          }
        }
      }
    }
  }
  std::ostringstream worst_text;
  worst_text << worst;
  RecordProperty("worst_relative_error", worst_text.str());
}

TEST(Beamformer, GateCovarianceIsHermitianAndSummedInOrder) {
  // R_g[i][j] = sum_t x_i(t) conj(x_j(t)) in ascending t for j >= i, its
  // lower triangle the conjugate mirror; bitwise.
  const ArrayGeometry g = make_respeaker_array();
  const std::vector<ComplexSignal> chans = analytic_channels(
      plane_wave_tone(g, Direction{0.4, 1.2}, kF0, 256, 0.2, 3));
  const CMatrix r = GateProducts(chans).covariance(40, 300);  // clipped
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = i; j < 6; ++j) {
      Complex acc(0.0, 0.0);
      for (std::size_t t = 40; t < 256; ++t)
        acc += chans[i][t] * std::conj(chans[j][t]);
      EXPECT_EQ(r(i, j), acc) << i << "," << j;
      EXPECT_EQ(r(j, i), std::conj(r(i, j))) << i << "," << j;
    }
  }
  EXPECT_THROW((void)gated_energy(r, std::vector<Complex>(5)),
               std::invalid_argument);
}

TEST(Beamformer, IncoherentEnergyIsDirectionFree) {
  const ArrayGeometry g = make_respeaker_array();
  const std::vector<ComplexSignal> x =
      analytic_channels(plane_wave_tone(g, Direction{1.0, 1.3}, kF0, 512));
  const double e = incoherent_energy(x, 128, 256);
  EXPECT_NEAR(e, 256.0, 20.0);  // mean per-mic |analytic|^2 = 1
  // Bitwise: channels outer, samples inner, both ascending, then the mean;
  // a gate past the end reads exactly zero.
  double sum = 0.0;
  for (const ComplexSignal& c : x)
    for (std::size_t t = 128; t < 384; ++t) sum += std::norm(c[t]);
  EXPECT_EQ(e, sum / 6.0);
  EXPECT_EQ(incoherent_energy(x, 512, 10), 0.0);
}

TEST(Beamformer, RejectsBadInputs) {
  // The solver rejects a covariance or a mask whose size does not match
  // the array, and a mask that leaves no channel; the gate statistics
  // reject ragged or missing windows.
  const ArrayGeometry g = make_respeaker_array();
  const CMatrix white = white_noise_covariance(g.num_mics());
  EXPECT_THROW(WeightSolver(g, white_noise_covariance(4), kF0),
               std::invalid_argument);
  EXPECT_THROW(WeightSolver(g, white, kF0, kSpeedOfSoundMps,
                            ChannelMask(4, true)),
               std::invalid_argument);
  EXPECT_THROW(WeightSolver(g, white, kF0, kSpeedOfSoundMps,
                            ChannelMask(g.num_mics(), false)),
               std::invalid_argument);
  const std::vector<ComplexSignal> ragged = {
      ComplexSignal(64), ComplexSignal(32), ComplexSignal(64)};
  EXPECT_THROW((void)GateProducts{ragged}, std::invalid_argument);
  EXPECT_THROW((void)incoherent_energy(ragged, 0, 16), std::invalid_argument);
  EXPECT_THROW((void)GateProducts{{}}, std::invalid_argument);
  EXPECT_THROW((void)incoherent_energy({}, 0, 16), std::invalid_argument);
}


TEST(Beamformer, PhysicallyRenderedEchoFavoursTrueDirection) {
  // Ground truth from the acoustic renderer, not from synthetic phases: a
  // point reflector to the array's left must yield more steered energy when
  // looking left than when looking right.
  using namespace echoimage::sim;
  Scene scene;
  scene.environment = make_environment(EnvironmentKind::kLab, 1, -100.0);
  scene.environment.clutter.clear();
  scene.environment.reverb = ReverbParams{};
  CaptureConfig capture_cfg;
  capture_cfg.sensor_noise = units::Decibels{-300.0};
  const SceneRenderer renderer(scene, capture_cfg);
  const Vec3 target{-0.5, 0.5, 0.0};  // up-left of the array
  Rng rng(3);
  const auto capture =
      renderer.render_beep({WorldReflector{target, 0.1, 0.0}}, rng);
  // Remove the direct chirp (first ~3 ms), keep the echo.
  MultiChannelSignal echo;
  for (const auto& ch : capture.channels) {
    Signal c = ch;
    std::fill(c.begin(), c.begin() + 150, 0.0);
    echo.channels.push_back(std::move(c));
  }
  const WeightSolver solver(make_respeaker_array(), white_noise_covariance(6),
                            kF0);
  const Direction toward{std::atan2(target.y, target.x),
                         std::acos(target.z / target.norm())};
  const Direction mirror{toward.theta + kPi, toward.phi};
  const CMatrix r =
      GateProducts(analytic_channels(echo)).covariance(0, echo.length());
  const double e_toward = gated_energy(r, weights(solver, toward, false));
  const double e_mirror = gated_energy(r, weights(solver, mirror, false));
  EXPECT_GT(e_toward, 1.3 * e_mirror);
}

TEST(NoiseCovarianceOf, MatchesDirectEstimate) {
  const ArrayGeometry g = make_respeaker_array();
  std::mt19937 gen(3);
  std::normal_distribution<double> d(0.0, 1.0);
  MultiChannelSignal noise;
  noise.channels.resize(6, Signal(1024));
  for (auto& ch : noise.channels)
    for (double& v : ch) v = d(gen);
  const CMatrix r = noise_covariance_of(noise);
  EXPECT_EQ(r.rows(), 6u);
  EXPECT_NEAR(r.mean_diagonal_real(), 1.0, 1e-9);
  EXPECT_THROW((void)noise_covariance_of(MultiChannelSignal{}),
               std::invalid_argument);
}

TEST(WeightSolver, CopiesOutliveTheSource) {
  // A solver is a plain value: copies, copies of copies and moved-to
  // solvers solve bit-identical weights after the source is gone, on the
  // full array and on a degraded subarray.
  const ArrayGeometry g = make_respeaker_array();
  std::mt19937 gen(11);
  std::normal_distribution<double> d(0.0, 1.0);
  MultiChannelSignal noise;
  noise.channels.assign(g.num_mics(), Signal(1024));
  for (Signal& c : noise.channels)
    for (double& v : c) v = d(gen);
  const CMatrix noise_cov = noise_covariance_of(noise);
  ChannelMask degraded(g.num_mics(), true);
  degraded[2] = false;
  const Direction look{1.0, 1.2};
  for (const ChannelMask& mask : {ChannelMask{}, degraded}) {
    auto source = std::make_unique<WeightSolver>(g, noise_cov, kF0,
                                                 kSpeedOfSoundMps, mask);
    const std::vector<Complex> want = weights(*source, look);
    ASSERT_EQ(want.size(), mask.empty() ? g.num_mics() : g.num_mics() - 1);
    WeightSolver copy = *source;
    WeightSolver assigned(g, white_noise_covariance(g.num_mics()), kF0);
    assigned = copy;
    source.reset();
    EXPECT_EQ(weights(copy, look), want);
    EXPECT_EQ(weights(assigned, look), want);
    const WeightSolver moved = std::move(assigned);
    EXPECT_EQ(weights(moved, look), want);
  }
}

TEST(Beampattern, PeaksAtLookDirection) {
  const ArrayGeometry g = make_respeaker_array();
  const Direction look{kPi / 2.0, kPi / 2.0};
  const auto w =
      das_weights(steering_vector_hz(g, look, kF0));
  std::vector<Direction> dirs;
  for (double th = 0.0; th < 2.0 * kPi; th += 0.1)
    dirs.push_back(Direction{th, kPi / 2.0});
  dirs.push_back(look);  // include the exact look direction in the scan
  const std::vector<double> bp = beampattern(g, w, kF0, dirs);
  double peak = 0.0;
  std::size_t peak_i = 0;
  for (std::size_t i = 0; i < bp.size(); ++i)
    if (bp[i] > peak) {
      peak = bp[i];
      peak_i = i;
    }
  EXPECT_NEAR(dirs[peak_i].theta, look.theta, 0.15);
  EXPECT_NEAR(peak, 1.0, 1e-9);  // w^H a at look = 1 for DAS
}

}  // namespace
}  // namespace echoimage::array
