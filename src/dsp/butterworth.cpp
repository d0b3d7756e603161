#include "dsp/butterworth.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>
#include <vector>

namespace echoimage::dsp {

namespace {

constexpr double kPi = std::numbers::pi;

// Normalized (cutoff = 1 rad/s) Butterworth low-pass prototype poles, all in
// the left half-plane: p_k = exp(j*pi*(2k + n - 1) / (2n)), k = 1..n.
std::vector<Complex> prototype_poles(std::size_t order) {
  std::vector<Complex> poles;
  poles.reserve(order);
  for (std::size_t k = 1; k <= order; ++k) {
    const double ang = kPi * (2.0 * static_cast<double>(k) +
                              static_cast<double>(order) - 1.0) /
                       (2.0 * static_cast<double>(order));
    poles.emplace_back(std::cos(ang), std::sin(ang));
  }
  return poles;
}

// Bilinear transform of an analog pole/zero, fs in Hz.
Complex bilinear(Complex s, double fs) {
  const double k = 2.0 * fs;
  return (k + s) / (k - s);
}

// Angular pre-warp so analog edge frequencies land exactly on the digital
// design frequencies after the bilinear transform.
double prewarp(double f_hz, double fs) {
  return 2.0 * fs * std::tan(kPi * f_hz / fs);
}

// Digital angular frequency a warped analog frequency maps back to.
double unwarp(double w_analog, double fs) {
  return 2.0 * std::atan(w_analog / (2.0 * fs));
}

BiquadSection section_from_conjugate_pole(Complex zp, double b0, double b1,
                                          double b2) {
  BiquadSection s;
  s.b0 = b0;
  s.b1 = b1;
  s.b2 = b2;
  s.a1 = -2.0 * zp.real();
  s.a2 = std::norm(zp);
  return s;
}

BiquadSection section_from_real_poles(double z1, double z2, double b0,
                                      double b1, double b2) {
  BiquadSection s;
  s.b0 = b0;
  s.b1 = b1;
  s.b2 = b2;
  s.a1 = -(z1 + z2);
  s.a2 = z1 * z2;
  return s;
}

void check_edge(double f_hz, double sample_rate, const char* what) {
  if (f_hz <= 0.0 || f_hz >= sample_rate / 2.0)
    throw std::invalid_argument(std::string("butterworth: ") + what +
                                " must lie in (0, fs/2)");
}

}  // namespace

SosCascade butterworth_bandpass(std::size_t order, double low_hz,
                                double high_hz, double sample_rate) {
  if (order == 0) throw std::invalid_argument("butterworth: order must be >=1");
  check_edge(low_hz, sample_rate, "low edge");
  check_edge(high_hz, sample_rate, "high edge");
  if (low_hz >= high_hz)
    throw std::invalid_argument("butterworth: low edge must be < high edge");

  const double fs = sample_rate;
  const double w1 = prewarp(low_hz, fs);
  const double w2 = prewarp(high_hz, fs);
  const double w0 = std::sqrt(w1 * w2);  // analog center
  const double bw = w2 - w1;

  std::vector<BiquadSection> sections;
  sections.reserve(order);

  // Band-pass transform s -> (s^2 + w0^2) / (bw * s): each prototype pole p
  // maps to the two roots of s^2 - p*bw*s + w0^2 = 0. Conjugate prototype
  // pairs produce conjugate band-pass pairs, so it suffices to process each
  // prototype pole with Im >= 0 once.
  for (const Complex& p : prototype_poles(order)) {
    if (p.imag() < -1e-12) continue;  // conjugate handled with its partner
    const Complex pb = p * bw;
    const Complex disc = std::sqrt(pb * pb - 4.0 * w0 * w0);
    const Complex s1 = 0.5 * (pb + disc);
    const Complex s2 = 0.5 * (pb - disc);
    // Numerator of every band-pass section is (z-1)(z+1) = z^2 - 1: one of
    // the n zeros at DC and one of the n at Nyquist.
    if (std::abs(p.imag()) < 1e-12) {
      // Real prototype pole (odd order): s1, s2 are either both real or a
      // conjugate pair; either way they form one section together.
      if (std::abs(disc.imag()) < 1e-12 && disc.real() >= 0.0) {
        const Complex z1 = bilinear(s1, fs);
        const Complex z2 = bilinear(s2, fs);
        sections.push_back(
            section_from_real_poles(z1.real(), z2.real(), 1.0, 0.0, -1.0));
      } else {
        sections.push_back(
            section_from_conjugate_pole(bilinear(s1, fs), 1.0, 0.0, -1.0));
      }
    } else {
      // Complex prototype pole: its conjugate partner contributes the
      // conjugates of s1 and s2, so each of s1, s2 seeds its own section.
      sections.push_back(
          section_from_conjugate_pole(bilinear(s1, fs), 1.0, 0.0, -1.0));
      sections.push_back(
          section_from_conjugate_pole(bilinear(s2, fs), 1.0, 0.0, -1.0));
    }
  }

  SosCascade cascade(std::move(sections), 1.0);
  // Unit gain at the (digital image of the) analog center frequency.
  const double w0d = unwarp(w0, fs);
  const double mag = std::abs(cascade.response(w0d));
  if (mag > 0.0) cascade.set_gain(1.0 / mag);
  return cascade;
}

SosCascade butterworth_lowpass(std::size_t order, double cutoff_hz,
                               double sample_rate) {
  if (order == 0) throw std::invalid_argument("butterworth: order must be >=1");
  check_edge(cutoff_hz, sample_rate, "cutoff");
  const double fs = sample_rate;
  const double wc = prewarp(cutoff_hz, fs);

  std::vector<BiquadSection> sections;
  for (const Complex& p : prototype_poles(order)) {
    if (p.imag() < -1e-12) continue;
    const Complex zp = bilinear(p * wc, fs);
    if (std::abs(p.imag()) < 1e-12) {
      // Real pole: first-order section with zero at z = -1.
      BiquadSection s;
      s.b0 = 1.0;
      s.b1 = 1.0;
      s.b2 = 0.0;
      s.a1 = -zp.real();
      s.a2 = 0.0;
      sections.push_back(s);
    } else {
      // Conjugate pair with double zero at z = -1.
      sections.push_back(section_from_conjugate_pole(zp, 1.0, 2.0, 1.0));
    }
  }
  SosCascade cascade(std::move(sections), 1.0);
  const double mag = std::abs(cascade.response(0.0));
  if (mag > 0.0) cascade.set_gain(1.0 / mag);
  return cascade;
}

}  // namespace echoimage::dsp
