// Basic signal containers and element-wise helpers shared by the whole
// EchoImage DSP stack.
//
// A Signal is a plain std::vector<double> sampled at a caller-tracked rate;
// MultiChannelSignal bundles one Signal per microphone. Free functions keep
// the containers std-compatible instead of wrapping them in a class.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace echoimage::dsp {

using Sample = double;
using Signal = std::vector<Sample>;
using Complex = std::complex<double>;
using ComplexSignal = std::vector<Complex>;

/// One Signal per channel; all channels must share length and sample rate.
struct MultiChannelSignal {
  std::vector<Signal> channels;

  [[nodiscard]] std::size_t num_channels() const { return channels.size(); }
  /// Length of channel 0 (0 when empty). All channels are expected equal.
  [[nodiscard]] std::size_t length() const {
    return channels.empty() ? 0 : channels.front().size();
  }
  /// True when every channel has the same number of samples.
  [[nodiscard]] bool is_rectangular() const;
};

/// Sum of squared samples.
[[nodiscard]] double energy(std::span<const Sample> x);

/// Root-mean-square amplitude; 0 for an empty signal.
[[nodiscard]] double rms(std::span<const Sample> x);

/// Largest absolute sample value; 0 for an empty signal.
[[nodiscard]] double peak_abs(std::span<const Sample> x);

/// Arithmetic mean; 0 for an empty signal.
[[nodiscard]] double mean(std::span<const Sample> x);

/// Inner product of two equal-length signals. Throws std::invalid_argument
/// on length mismatch.
[[nodiscard]] double dot(std::span<const Sample> a, std::span<const Sample> b);

/// Pearson correlation coefficient in [-1, 1]; 0 when either side is
/// constant. Throws std::invalid_argument on length mismatch.
[[nodiscard]] double pearson(std::span<const Sample> a,
                             std::span<const Sample> b);

/// x *= g, in place.
void scale_in_place(Signal& x, double g);

/// a += b element-wise; b may be shorter than a (the tail is untouched).
void add_in_place(Signal& a, std::span<const Sample> b);

/// Seconds to a whole number of samples (rounded to nearest).
[[nodiscard]] std::size_t seconds_to_samples(double seconds,
                                             double sample_rate);

/// Sample index to seconds.
[[nodiscard]] double samples_to_seconds(std::size_t samples,
                                        double sample_rate);

}  // namespace echoimage::dsp
