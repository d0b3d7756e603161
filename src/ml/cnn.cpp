#include "ml/cnn.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>

#include "simd/kernels.hpp"

namespace echoimage::ml {

Conv2D::Conv2D(std::size_t in_channels, std::size_t out_channels,
               std::uint64_t seed)
    : in_(in_channels), out_(out_channels) {
  if (in_ == 0 || out_ == 0)
    throw std::invalid_argument("Conv2D: channel counts must be positive");
  std::mt19937_64 gen(seed);
  // He-normal: std = sqrt(2 / fan_in) suits ReLU activations.
  const double stddev = std::sqrt(2.0 / (9.0 * static_cast<double>(in_)));
  std::normal_distribution<double> dist(0.0, stddev);
  weights_.resize(9 * in_ * out_);
  for (double& w : weights_) w = dist(gen);
  bias_.assign(out_, 0.0);
}

Tensor3 Conv2D::forward(const Tensor3& x) const {
  if (x.channels() != in_)
    throw std::invalid_argument("Conv2D: channel mismatch");
  const std::size_t h = x.height(), w = x.width();
  Tensor3 y(h, w, out_);
  // One kernel call per output row; the output channels run in lanes.
  const simd::Conv3x3 conv{x.data().data(), h, w, in_, out_,
                           weights_.data(), bias_.data()};
  const simd::KernelTable& kernels = simd::kernels();
  for (std::size_t oy = 0; oy < h; ++oy)
    kernels.conv3x3_row_f64(conv, oy, y.data().data() + oy * w * out_);
  return y;
}

Tensor3 relu(const Tensor3& x) {
  Tensor3 y = x;
  for (double& v : y.data()) v = std::max(0.0, v);
  return y;
}

Tensor3 leaky_relu(const Tensor3& x, double alpha) {
  Tensor3 y = x;
  // A select, not a branch: the sign of a convolution output follows the
  // data, so a branch on it mispredicts often.
  for (double& v : y.data()) {
    const double scaled = v * alpha;
    v = v < 0.0 ? scaled : v;
  }
  return y;
}

Tensor3 max_pool2(const Tensor3& x) {
  const std::size_t h = x.height() / 2, w = x.width() / 2;
  Tensor3 y(h, w, x.channels());
  for (std::size_t oy = 0; oy < h; ++oy)
    for (std::size_t ox = 0; ox < w; ++ox)
      for (std::size_t c = 0; c < x.channels(); ++c) {
        const double a = x.at(2 * oy, 2 * ox, c);
        const double b = x.at(2 * oy, 2 * ox + 1, c);
        const double d = x.at(2 * oy + 1, 2 * ox, c);
        const double e = x.at(2 * oy + 1, 2 * ox + 1, c);
        y.at(oy, ox, c) = std::max(std::max(a, b), std::max(d, e));
      }
  return y;
}

VggishFeatureExtractor::VggishFeatureExtractor()
    : VggishFeatureExtractor(Config{}) {}

VggishFeatureExtractor::VggishFeatureExtractor(Config config)
    : config_(std::move(config)) {
  if (config_.block_channels.empty())
    throw std::invalid_argument("VggishFeatureExtractor: no blocks");
  if (config_.input_size >> config_.block_channels.size() == 0)
    throw std::invalid_argument(
        "VggishFeatureExtractor: input too small for the pooling depth");
  std::size_t in = 1;
  std::uint64_t seed = config_.seed;
  for (const std::size_t out : config_.block_channels) {
    convs_.emplace_back(in, out, seed);
    in = out;
    seed = seed * 0x9E3779B97F4A7C15ULL + 1;
  }
}

std::size_t VggishFeatureExtractor::feature_dim() const {
  std::size_t side = config_.input_size;
  for (std::size_t i = 0; i < convs_.size(); ++i) side /= 2;
  return side * side * config_.block_channels.back();
}

Tensor3 avg_pool2(const Tensor3& x) {
  const std::size_t h = x.height() / 2, w = x.width() / 2;
  Tensor3 y(h, w, x.channels());
  for (std::size_t oy = 0; oy < h; ++oy)
    for (std::size_t ox = 0; ox < w; ++ox)
      for (std::size_t c = 0; c < x.channels(); ++c) {
        y.at(oy, ox, c) = 0.25 * (x.at(2 * oy, 2 * ox, c) +
                                  x.at(2 * oy, 2 * ox + 1, c) +
                                  x.at(2 * oy + 1, 2 * ox, c) +
                                  x.at(2 * oy + 1, 2 * ox + 1, c));
      }
  return y;
}

Tensor3 VggishFeatureExtractor::forward(const Tensor3& input) const {
  Tensor3 t = input;
  for (const Conv2D& conv : convs_) {
    t = conv.forward(t);
    t = config_.leaky_slope > 0.0 ? leaky_relu(t, config_.leaky_slope)
                                  : relu(t);
    t = config_.average_pool ? avg_pool2(t) : max_pool2(t);
  }
  return t;
}

std::vector<double> VggishFeatureExtractor::extract(
    const Matrix2D& image) const {
  Matrix2D resized =
      bilinear_resize(image, config_.input_size, config_.input_size);
  if (config_.log_scale) {
    for (double& v : resized.data())
      v = std::log(std::max(v, 0.0) + config_.log_epsilon);
  }
  if (config_.bypass_network) return resized.data();
  const Tensor3 out = forward(to_tensor(resized));
  return out.data();
}

}  // namespace echoimage::ml
