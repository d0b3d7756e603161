#include "core/augment.hpp"

#include <stdexcept>

#include "runtime/parallel_for.hpp"

namespace echoimage::core {

DataAugmenter::DataAugmenter(ImagingConfig config,
                             std::shared_ptr<echoimage::runtime::ThreadPool> pool)
    : config_(std::move(config)), pool_(std::move(pool)) {}

Matrix2D DataAugmenter::transform(const Matrix2D& image, double from_m,
                                  double to_m) const {
  if (image.rows() != config_.grid_size || image.cols() != config_.grid_size)
    throw std::invalid_argument("DataAugmenter: image/grid size mismatch");
  if (from_m <= 0.0 || to_m <= 0.0)
    throw std::invalid_argument("DataAugmenter: distances must be positive");
  Matrix2D out(image.rows(), image.cols());
  for (std::size_t r = 0; r < image.rows(); ++r) {
    for (std::size_t c = 0; c < image.cols(); ++c) {
      const double dk =
          grid_distance(config_, r, c, units::Meters{from_m}).value();
      const double dk2 =
          grid_distance(config_, r, c, units::Meters{to_m}).value();
      const double scale = (dk / dk2) * (dk / dk2);  // Eq. 15
      out(r, c) = scale * image(r, c);
    }
  }
  return out;
}

AcousticImage DataAugmenter::transform(const AcousticImage& image,
                                       double from_m, double to_m) const {
  AcousticImage out;
  out.bands.reserve(image.bands.size());
  for (const Matrix2D& b : image.bands)
    out.bands.push_back(transform(b, from_m, to_m));
  return out;
}

std::vector<Matrix2D> DataAugmenter::synthesize(
    const Matrix2D& image, double from_m,
    const std::vector<double>& target_distances_m) const {
  std::vector<Matrix2D> out(target_distances_m.size());
  // Per-target fan-out: each distance fills its own slot, so the result
  // vector is identical to the serial loop for any worker count.
  const auto project = [&](std::size_t i, std::size_t) {
    out[i] = transform(image, from_m, target_distances_m[i]);
  };
  echoimage::runtime::parallel_for(pool_.get(), target_distances_m.size(),
                                   project);
  return out;
}

}  // namespace echoimage::core
