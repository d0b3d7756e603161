#include "dsp/biquad.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "simd/aligned.hpp"
#include "simd/kernels.hpp"

namespace echoimage::dsp {

Complex BiquadSection::response(double w) const {
  const Complex z1 = std::polar(1.0, -w);
  const Complex z2 = z1 * z1;
  return (b0 + b1 * z1 + b2 * z2) / (1.0 + a1 * z1 + a2 * z2);
}

bool BiquadSection::is_stable() const {
  // Jury stability criterion for a monic quadratic.
  return std::abs(a2) < 1.0 && std::abs(a1) < 1.0 + a2;
}

SosCascade::SosCascade(std::vector<BiquadSection> sections, double gain)
    : sections_(std::move(sections)), gain_(gain) {}

bool SosCascade::is_stable() const {
  return std::all_of(sections_.begin(), sections_.end(),
                     [](const BiquadSection& s) { return s.is_stable(); });
}

Complex SosCascade::response(double w) const {
  Complex h(gain_, 0.0);
  for (const BiquadSection& s : sections_) h *= s.response(w);
  return h;
}

double SosCascade::magnitude_at(double freq_hz, double sample_rate) const {
  const double w = 2.0 * std::numbers::pi * freq_hz / sample_rate;
  return std::abs(response(w));
}

Signal SosCascade::filter(std::span<const Sample> x) const {
  Signal y(x.begin(), x.end());
  for (const BiquadSection& s : sections_) {
    double z1 = 0.0, z2 = 0.0;  // direct form II transposed state
    for (double& v : y) {
      const double in = v;
      const double out = s.b0 * in + z1;
      z1 = s.b1 * in - s.a1 * out + z2;
      z2 = s.b2 * in - s.a2 * out;
      v = out;
    }
  }
  for (double& v : y) v *= gain_;
  return y;
}

Signal SosCascade::filtfilt(std::span<const Sample> x) const {
  if (x.empty()) return {};
  // Odd reflection about the end points suppresses edge transients
  // (same scheme as scipy.signal.filtfilt).
  const std::size_t pad = std::min<std::size_t>(
      x.size() > 1 ? x.size() - 1 : 0, 6 * sections_.size() + 12);
  Signal ext;
  ext.reserve(x.size() + 2 * pad);
  for (std::size_t i = 0; i < pad; ++i)
    ext.push_back(2.0 * x.front() - x[pad - i]);
  ext.insert(ext.end(), x.begin(), x.end());
  for (std::size_t i = 0; i < pad; ++i)
    ext.push_back(2.0 * x.back() - x[x.size() - 2 - i]);

  Signal fwd = filter(ext);
  std::reverse(fwd.begin(), fwd.end());
  Signal bwd = filter(fwd);
  std::reverse(bwd.begin(), bwd.end());

  return Signal(bwd.begin() + static_cast<std::ptrdiff_t>(pad),
                bwd.begin() + static_cast<std::ptrdiff_t>(pad + x.size()));
}

namespace {

bool is_rectangular(const std::vector<Signal>& x) {
  for (const Signal& c : x)
    if (c.size() != x.front().size()) return false;
  return true;
}

}  // namespace

std::vector<Signal> SosCascade::filtfilt_multi(
    const std::vector<Signal>& x) const {
  if (x.empty()) return {};
  if (!is_rectangular(x) || x.size() < 2 || x.front().empty()) {
    std::vector<Signal> out;
    out.reserve(x.size());
    for (const Signal& c : x) out.push_back(filtfilt(c));
    return out;
  }
  const std::size_t width = x.size();
  const std::size_t n = x.front().size();
  const std::size_t pad = std::min<std::size_t>(
      n > 1 ? n - 1 : 0, 6 * sections_.size() + 12);
  const std::size_t frames = n + 2 * pad;
  // Channel-interleaved frames of the odd-extended channels (filtfilt's
  // edge padding): packed[t * width + c] = ext_c[t].
  simd::AlignedVector<double> packed(frames * width);
  for (std::size_t c = 0; c < width; ++c) {
    const Signal& ch = x[c];
    double* col = packed.data() + c;
    for (std::size_t i = 0; i < pad; ++i)
      col[i * width] = 2.0 * ch.front() - ch[pad - i];
    for (std::size_t i = 0; i < n; ++i) col[(pad + i) * width] = ch[i];
    for (std::size_t i = 0; i < pad; ++i)
      col[(pad + n + i) * width] = 2.0 * ch.back() - ch[n - 2 - i];
  }

  const simd::KernelTable& k = simd::kernels();
  simd::AlignedVector<double> z1(width), z2(width);
  const auto cascade = [&] {
    for (const BiquadSection& s : sections_) {
      std::fill(z1.begin(), z1.end(), 0.0);
      std::fill(z2.begin(), z2.end(), 0.0);
      const simd::SosCoeffs c{s.b0, s.b1, s.b2, s.a1, s.a2};
      k.sos_section_f64(packed.data(), frames, width, c, z1.data(),
                        z2.data());
    }
    k.scale_f64(packed.data(), packed.size(), gain_);
  };
  // Forward pass, frames reversed in place, backward pass.
  cascade();
  for (std::size_t t = 0; t < frames / 2; ++t) {
    double* frame = packed.data() + t * width;
    std::swap_ranges(frame, frame + width,
                     packed.data() + (frames - 1 - t) * width);
  }
  cascade();

  // Unpack with the final reversal and the trim folded in: sample i of
  // channel c is frame frames - 1 - pad - i of the backward pass.
  std::vector<Signal> out(width, Signal(n));
  for (std::size_t c = 0; c < width; ++c) {
    const double* col = packed.data() + c;
    Signal& y = out[c];
    for (std::size_t i = 0; i < n; ++i)
      y[i] = col[(frames - 1 - pad - i) * width];
  }
  return out;
}

}  // namespace echoimage::dsp
