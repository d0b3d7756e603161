#include "ml/tensor.hpp"

#include <algorithm>
#include <cmath>

namespace echoimage::ml {

Tensor3 to_tensor(const Matrix2D& m) {
  Tensor3 t(m.rows(), m.cols(), 1);
  t.data() = m.data();
  return t;
}

Matrix2D bilinear_resize(const Matrix2D& in, std::size_t rows,
                         std::size_t cols) {
  Matrix2D out(rows, cols);
  if (in.rows() == 0 || in.cols() == 0 || rows == 0 || cols == 0) return out;
  const double ry = rows > 1
                        ? static_cast<double>(in.rows() - 1) /
                              static_cast<double>(rows - 1)
                        : 0.0;
  const double rx = cols > 1
                        ? static_cast<double>(in.cols() - 1) /
                              static_cast<double>(cols - 1)
                        : 0.0;
  for (std::size_t r = 0; r < rows; ++r) {
    const double sy = static_cast<double>(r) * ry;
    const std::size_t y0 = static_cast<std::size_t>(sy);
    const std::size_t y1 = std::min(y0 + 1, in.rows() - 1);
    const double fy = sy - static_cast<double>(y0);
    for (std::size_t c = 0; c < cols; ++c) {
      const double sx = static_cast<double>(c) * rx;
      const std::size_t x0 = static_cast<std::size_t>(sx);
      const std::size_t x1 = std::min(x0 + 1, in.cols() - 1);
      const double fx = sx - static_cast<double>(x0);
      const double top = in(y0, x0) * (1.0 - fx) + in(y0, x1) * fx;
      const double bot = in(y1, x0) * (1.0 - fx) + in(y1, x1) * fx;
      out(r, c) = top * (1.0 - fy) + bot * fy;
    }
  }
  return out;
}

}  // namespace echoimage::ml
