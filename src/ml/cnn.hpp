// Forward-only convolutional feature extractor (paper Sec. V-D).
//
// The paper feeds acoustic images to a frozen, pre-trained VGGish network
// and takes the 5th pooling layer's activations as features for the SVM.
// Shipping AudioSet weights is not possible offline, so this extractor uses
// the same *architecture family* (stacked 3x3 conv + ReLU + 2x2 max-pool
// blocks) with fixed, seeded He-initialized filters — "random convolutional
// features". The network is never trained, exactly as in the paper; the
// SVM/SVDD layer on top does all the learning. See DESIGN.md for why this
// substitution preserves the paper's behaviour.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/tensor.hpp"

namespace echoimage::ml {

/// 3x3 same-padding convolution with per-output-channel bias.
class Conv2D {
 public:
  /// He-normal initialization from the given seed (deterministic).
  Conv2D(std::size_t in_channels, std::size_t out_channels,
         std::uint64_t seed);

  [[nodiscard]] std::size_t in_channels() const { return in_; }
  [[nodiscard]] std::size_t out_channels() const { return out_; }

  [[nodiscard]] Tensor3 forward(const Tensor3& x) const;

 private:
  std::size_t in_, out_;
  std::vector<double> weights_;  ///< [3][3][in][out]
  std::vector<double> bias_;     ///< [out]
};

/// Element-wise ReLU.
[[nodiscard]] Tensor3 relu(const Tensor3& x);

/// Element-wise leaky ReLU (slope `alpha` for negative inputs).
[[nodiscard]] Tensor3 leaky_relu(const Tensor3& x, double alpha);

/// 2x2 max pooling with stride 2 (odd trailing rows/cols dropped, as in
/// VGG).
[[nodiscard]] Tensor3 max_pool2(const Tensor3& x);

/// 2x2 average pooling with stride 2.
[[nodiscard]] Tensor3 avg_pool2(const Tensor3& x);

/// VGGish-style extractor: resize -> [conv3x3 + ReLU + pool2] blocks ->
/// flatten the final pooled activations.
class VggishFeatureExtractor {
 public:
  struct Config {
    std::size_t input_size = 48;  ///< images are resized to this square size
    std::vector<std::size_t> block_channels = {8, 16, 32, 32};
    std::uint64_t seed = 0xF00DF00DULL;
    /// Log-scale pixels before the network: x -> log(x + eps). VGGish
    /// consumes log-magnitude inputs, and the compression turns
    /// multiplicative nuisances (pose gain, spreading loss) into small
    /// additive offsets while keeping the user's reflectivity pattern — and
    /// the distance information that data augmentation models — intact.
    bool log_scale = false;
    double log_epsilon = 1e-6;
    /// Untrained (seeded random) filters act as a random projection; that
    /// projection must preserve image geometry (Johnson-Lindenstrauss) for
    /// the SVM layer to see user separation. Average pooling and a leaky
    /// activation keep the map near-isometric on the smooth acoustic
    /// images; hard max-pool + ReLU (VGG's choices, which work with
    /// *trained* filters) are available for the ablation bench.
    bool average_pool = true;
    double leaky_slope = 0.3;  ///< 0 = hard ReLU
    /// Skip the network entirely and return the resized image as the
    /// feature vector — the "manual/raw feature" baseline the paper argues
    /// against (Sec. V-D), kept for the ablation bench.
    bool bypass_network = false;
  };

  VggishFeatureExtractor();  ///< default Config
  explicit VggishFeatureExtractor(Config config);

  [[nodiscard]] const Config& config() const { return config_; }

  /// Number of features produced per image.
  [[nodiscard]] std::size_t feature_dim() const;

  /// Full pipeline: bilinear-resize the acoustic image to the input size,
  /// run the frozen network, flatten the last pool output. Deliberately does
  /// NOT normalize image amplitude: the overall echo level carries distance
  /// information the data-augmentation experiment (paper Sec. VI-E)
  /// depends on.
  [[nodiscard]] std::vector<double> extract(const Matrix2D& image) const;

  /// Forward pass on an already-sized tensor (exposed for tests).
  [[nodiscard]] Tensor3 forward(const Tensor3& input) const;

 private:
  Config config_;
  std::vector<Conv2D> convs_;
};

}  // namespace echoimage::ml
