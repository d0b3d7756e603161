#include "dsp/signal.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace echoimage::dsp {

bool MultiChannelSignal::is_rectangular() const {
  if (channels.empty()) return true;
  const std::size_t n = channels.front().size();
  return std::all_of(channels.begin(), channels.end(),
                     [n](const Signal& c) { return c.size() == n; });
}

double energy(std::span<const Sample> x) {
  double e = 0.0;
  for (const double v : x) e += v * v;
  return e;
}

double rms(std::span<const Sample> x) {
  if (x.empty()) return 0.0;
  return std::sqrt(energy(x) / static_cast<double>(x.size()));
}

double peak_abs(std::span<const Sample> x) {
  double p = 0.0;
  for (const double v : x) p = std::max(p, std::abs(v));
  return p;
}

double mean(std::span<const Sample> x) {
  if (x.empty()) return 0.0;
  double s = 0.0;
  for (const double v : x) s += v;
  return s / static_cast<double>(x.size());
}

double dot(std::span<const Sample> a, std::span<const Sample> b) {
  if (a.size() != b.size())
    throw std::invalid_argument("dot: length mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double pearson(std::span<const Sample> a, std::span<const Sample> b) {
  if (a.size() != b.size())
    throw std::invalid_argument("pearson: length mismatch");
  if (a.empty()) return 0.0;
  const double ma = mean(a);
  const double mb = mean(b);
  double sab = 0.0, saa = 0.0, sbb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    sab += da * db;
    saa += da * da;
    sbb += db * db;
  }
  if (saa <= 0.0 || sbb <= 0.0) return 0.0;
  return sab / std::sqrt(saa * sbb);
}

void scale_in_place(Signal& x, double g) {
  for (double& v : x) v *= g;
}

void add_in_place(Signal& a, std::span<const Sample> b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) a[i] += b[i];
}

std::size_t seconds_to_samples(double seconds, double sample_rate) {
  const double s = seconds * sample_rate;
  return s <= 0.0 ? 0 : static_cast<std::size_t>(std::lround(s));
}

double samples_to_seconds(std::size_t samples, double sample_rate) {
  return static_cast<double>(samples) / sample_rate;
}

}  // namespace echoimage::dsp
