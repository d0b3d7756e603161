#include "dsp/matched_filter.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "dsp/chirp.hpp"
#include "dsp/hilbert.hpp"

namespace echoimage::dsp {
namespace {

constexpr double kFs = 48000.0;

Signal chirp_template() { return Chirp(ChirpParams{}).sample(kFs); }

TEST(MatchedFilter, PeakAtEchoOnset) {
  const Chirp chirp{ChirpParams{}};
  const Signal tmpl = chirp_template();
  // Echo delayed by exactly 200 samples.
  const Signal rx = chirp.render_delayed(kFs, 1024, 200.0 / kFs, 1.0);
  const Signal out = matched_filter(rx, tmpl);
  std::size_t best = 0;
  for (std::size_t i = 1; i < out.size(); ++i)
    if (out[i] > out[best]) best = i;
  EXPECT_NEAR(static_cast<double>(best), 200.0, 2.0);
}

TEST(MatchedFilter, OutputLengthMatchesInput) {
  const Signal rx(777, 0.1);
  const Signal out = matched_filter(rx, chirp_template());
  EXPECT_EQ(out.size(), rx.size());
}

TEST(MatchedFilter, LinearInAmplitude) {
  const Chirp chirp{ChirpParams{}};
  const Signal tmpl = chirp_template();
  const Signal rx1 = chirp.render_delayed(kFs, 512, 0.002, 1.0);
  const Signal rx3 = chirp.render_delayed(kFs, 512, 0.002, 3.0);
  const Signal o1 = matched_filter(rx1, tmpl);
  const Signal o3 = matched_filter(rx3, tmpl);
  for (std::size_t i = 0; i < o1.size(); ++i)
    EXPECT_NEAR(o3[i], 3.0 * o1[i], 1e-9);
}

TEST(MatchedFilter, TwoEchoesTwoPeaks) {
  const Chirp chirp{ChirpParams{}};
  const Signal tmpl = chirp_template();
  Signal rx(2048, 0.0);
  chirp.add_delayed(rx, kFs, 300.0 / kFs, 1.0);
  chirp.add_delayed(rx, kFs, 900.0 / kFs, 0.7);
  const Signal env = matched_filter_envelope(analytic_signal(rx), tmpl);
  // Both onsets must carry local energy maxima of roughly the right ratio.
  double p1 = 0.0, p2 = 0.0;
  for (std::size_t i = 250; i < 400; ++i) p1 = std::max(p1, env[i]);
  for (std::size_t i = 850; i < 1000; ++i) p2 = std::max(p2, env[i]);
  EXPECT_GT(p1, 0.0);
  EXPECT_NEAR(p2 / p1, 0.7, 0.05);
}

TEST(MatchedFilterEnvelope, IsEnvelopeOfRealOutput) {
  const Chirp chirp{ChirpParams{}};
  const Signal tmpl = chirp_template();
  const Signal rx = chirp.render_delayed(kFs, 512, 0.001, 1.0);
  const Signal real_out = matched_filter(rx, tmpl);
  const Signal env = matched_filter_envelope(analytic_signal(rx), tmpl);
  ASSERT_EQ(env.size(), real_out.size());
  // The envelope upper-bounds |real output| and touches it at the peak.
  double max_real = 0.0, max_env = 0.0;
  for (std::size_t i = 0; i < env.size(); ++i) {
    EXPECT_GE(env[i] + 1e-6, std::abs(real_out[i]));
    max_real = std::max(max_real, std::abs(real_out[i]));
    max_env = std::max(max_env, env[i]);
  }
  EXPECT_NEAR(max_env, max_real, 0.05 * max_real);
}

TEST(MatchedFilterEnvelope, PulseCompressionWidthIsReciprocalBandwidth) {
  // A 1 kHz-bandwidth chirp compresses to roughly 1 ms at -6 dB.
  const Chirp chirp{ChirpParams{}};
  const Signal tmpl = chirp_template();
  const Signal rx = chirp.render_delayed(kFs, 2048, 0.005, 1.0);
  const Signal env = matched_filter_envelope(analytic_signal(rx), tmpl);
  double peak = 0.0;
  std::size_t peak_i = 0;
  for (std::size_t i = 0; i < env.size(); ++i)
    if (env[i] > peak) {
      peak = env[i];
      peak_i = i;
    }
  std::size_t lo = peak_i, hi = peak_i;
  while (lo > 0 && env[lo] > 0.5 * peak) --lo;
  while (hi < env.size() - 1 && env[hi] > 0.5 * peak) ++hi;
  const double width_s = static_cast<double>(hi - lo) / kFs;
  EXPECT_LT(width_s, 0.0015);  // ~1/B with margin
  EXPECT_GT(width_s, 0.0002);
}

TEST(MatchedFilterComplex, MagnitudeMatchesEnvelopeVersion) {
  const Chirp chirp{ChirpParams{}};
  const Signal tmpl = chirp_template();
  const Signal rx = chirp.render_delayed(kFs, 640, 0.003, 0.5);
  const ComplexSignal a = analytic_signal(rx);
  const ComplexSignal c = matched_filter_complex(a, tmpl);
  const Signal env = matched_filter_envelope(a, tmpl);
  ASSERT_EQ(c.size(), env.size());
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(std::abs(c[i]), env[i], 1e-9);
}

TEST(MatchedFilter, EmptyInputsYieldZeros) {
  EXPECT_TRUE(matched_filter(Signal{}, chirp_template()).empty());
  const Signal out = matched_filter(Signal(16, 1.0), Signal{});
  for (const double v : out) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(MatchedFilter, NoiseOnlyInputHasNoDominantPeak) {
  // White noise against the chirp: output should lack a compressed spike
  // comparable to a true echo's.
  const Signal tmpl = chirp_template();
  Signal noise(2048);
  unsigned state = 12345;
  for (double& v : noise) {
    state = state * 1664525u + 1013904223u;
    v = (static_cast<double>(state) / 4294967295.0 - 0.5) * 0.01;
  }
  const Chirp chirp{ChirpParams{}};
  Signal with_echo = noise;
  chirp.add_delayed(with_echo, kFs, 0.01, 0.05);
  const Signal env_noise = matched_filter_envelope(analytic_signal(noise), tmpl);
  const Signal env_echo =
      matched_filter_envelope(analytic_signal(with_echo), tmpl);
  const double max_noise = peak_abs(env_noise);
  double max_echo = 0.0;
  for (std::size_t i = 470; i < 500; ++i)
    max_echo = std::max(max_echo, env_echo[i]);
  EXPECT_GT(max_echo, 3.0 * max_noise);  // processing gain reveals the echo
}

TEST(MatchedFilterComplex, SpectrumMustCoverSignalAndTemplate) {
  // A spectrum shorter than the signal (or an FFT shorter than the
  // template) cannot hold the linear correlation: rejected, never wrapped.
  const Signal tmpl = chirp_template();
  const ComplexSignal rx(1024, Complex(1.0, 0.0));
  EXPECT_THROW((void)template_spectrum(tmpl, 64), std::invalid_argument);
  const ComplexSignal short_spectrum = template_spectrum(tmpl, 512);
  EXPECT_THROW((void)matched_filter_complex(rx, short_spectrum),
               std::invalid_argument);
  EXPECT_EQ(matched_filter_fft_length(1024, tmpl.size()),
            std::size_t{2048});
}

}  // namespace
}  // namespace echoimage::dsp
