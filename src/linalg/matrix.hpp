// Small dense matrix types for array processing.
//
// MVDR weights (paper Eq. 8) need the inverse of M x M covariance matrices
// where M is the microphone count (6 for a ReSpeaker-class array), so a
// simple dense row-major implementation is the right tool.
#pragma once

#include <cstddef>
#include <vector>

#include "dsp/signal.hpp"

namespace echoimage::linalg {

using Complex = echoimage::dsp::Complex;

/// Dense row-major complex matrix.
class CMatrix {
 public:
  CMatrix() = default;
  CMatrix(std::size_t rows, std::size_t cols,
          Complex fill = Complex(0.0, 0.0));

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  [[nodiscard]] Complex& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] const Complex& operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] const std::vector<Complex>& data() const { return data_; }

  /// Identity matrix of size n.
  [[nodiscard]] static CMatrix identity(std::size_t n);

  /// Conjugate transpose.
  [[nodiscard]] CMatrix hermitian() const;

  /// Frobenius norm.
  [[nodiscard]] double frobenius_norm() const;

  /// this += alpha * I (diagonal loading). Throws when not square.
  void add_diagonal(double alpha);

  /// Mean of the diagonal's real parts (used to scale diagonal loading).
  [[nodiscard]] double mean_diagonal_real() const;

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<Complex> data_;
};

/// Matrix product A * B. Throws std::invalid_argument on shape mismatch.
[[nodiscard]] CMatrix multiply(const CMatrix& a, const CMatrix& b);

/// Matrix-vector product A * x.
[[nodiscard]] std::vector<Complex> multiply(const CMatrix& a,
                                            const std::vector<Complex>& x);

/// Allocation-reusing matrix-vector product: out = A * x (resized to fit).
/// Same operation order as `multiply`, so results are bit-identical.
/// `out` must not alias `x`.
void multiply_into(const CMatrix& a, const std::vector<Complex>& x,
                   std::vector<Complex>& out);

/// Inner product x^H y.
[[nodiscard]] Complex hdot(const std::vector<Complex>& x,
                           const std::vector<Complex>& y);

/// Outer product x y^H as a matrix.
[[nodiscard]] CMatrix outer(const std::vector<Complex>& x,
                            const std::vector<Complex>& y);

/// General inverse via Gauss-Jordan with partial pivoting. Throws
/// std::runtime_error for (numerically) singular input.
[[nodiscard]] CMatrix inverse(const CMatrix& a);

}  // namespace echoimage::linalg
