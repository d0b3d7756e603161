// Minimal dense tensors for the forward-only CNN feature extractor.
#pragma once

#include <cstddef>
#include <vector>

namespace echoimage::ml {

/// 2-D row-major matrix of doubles (acoustic images, feature maps).
class Matrix2D {
 public:
  Matrix2D() = default;
  Matrix2D(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] const double& operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] std::vector<double>& data() { return data_; }
  [[nodiscard]] const std::vector<double>& data() const { return data_; }

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<double> data_;
};

/// 3-D tensor in HWC layout (height, width, channels).
class Tensor3 {
 public:
  Tensor3() = default;
  Tensor3(std::size_t h, std::size_t w, std::size_t c, double fill = 0.0)
      : h_(h), w_(w), c_(c), data_(h * w * c, fill) {}

  [[nodiscard]] std::size_t height() const { return h_; }
  [[nodiscard]] std::size_t width() const { return w_; }
  [[nodiscard]] std::size_t channels() const { return c_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

  [[nodiscard]] double& at(std::size_t y, std::size_t x, std::size_t ch) {
    return data_[(y * w_ + x) * c_ + ch];
  }
  [[nodiscard]] const double& at(std::size_t y, std::size_t x,
                                 std::size_t ch) const {
    return data_[(y * w_ + x) * c_ + ch];
  }
  [[nodiscard]] std::vector<double>& data() { return data_; }
  [[nodiscard]] const std::vector<double>& data() const { return data_; }

 private:
  std::size_t h_ = 0, w_ = 0, c_ = 0;
  std::vector<double> data_;
};

/// Single-channel tensor from a matrix.
[[nodiscard]] Tensor3 to_tensor(const Matrix2D& m);

/// Bilinear resize of a matrix to (rows, cols).
[[nodiscard]] Matrix2D bilinear_resize(const Matrix2D& in, std::size_t rows,
                                       std::size_t cols);

}  // namespace echoimage::ml
