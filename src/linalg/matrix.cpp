#include "linalg/matrix.hpp"

#include <cmath>
#include <stdexcept>

namespace echoimage::linalg {

CMatrix::CMatrix(std::size_t rows, std::size_t cols, Complex fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

CMatrix CMatrix::identity(std::size_t n) {
  CMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = Complex(1.0, 0.0);
  return m;
}

CMatrix CMatrix::hermitian() const {
  CMatrix m(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c)
      m(c, r) = std::conj((*this)(r, c));
  return m;
}

double CMatrix::frobenius_norm() const {
  double s = 0.0;
  for (const Complex& v : data_) s += std::norm(v);
  return std::sqrt(s);
}

void CMatrix::add_diagonal(double alpha) {
  if (rows_ != cols_)
    throw std::invalid_argument("add_diagonal: matrix must be square");
  for (std::size_t i = 0; i < rows_; ++i) (*this)(i, i) += alpha;
}

double CMatrix::mean_diagonal_real() const {
  if (rows_ == 0 || rows_ != cols_) return 0.0;
  double s = 0.0;
  for (std::size_t i = 0; i < rows_; ++i) s += (*this)(i, i).real();
  return s / static_cast<double>(rows_);
}

CMatrix multiply(const CMatrix& a, const CMatrix& b) {
  if (a.cols() != b.rows())
    throw std::invalid_argument("multiply: shape mismatch");
  CMatrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const Complex aik = a(i, k);
      if (aik == Complex(0.0, 0.0)) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += aik * b(k, j);
    }
  return out;
}

std::vector<Complex> multiply(const CMatrix& a, const std::vector<Complex>& x) {
  if (a.cols() != x.size())
    throw std::invalid_argument("multiply: shape mismatch");
  std::vector<Complex> out(a.rows(), Complex(0.0, 0.0));
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) out[i] += a(i, j) * x[j];
  return out;
}

void multiply_into(const CMatrix& a, const std::vector<Complex>& x,
                   std::vector<Complex>& out) {
  if (a.cols() != x.size())
    throw std::invalid_argument("multiply_into: shape mismatch");
  out.assign(a.rows(), Complex(0.0, 0.0));
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) out[i] += a(i, j) * x[j];
}

Complex hdot(const std::vector<Complex>& x, const std::vector<Complex>& y) {
  if (x.size() != y.size())
    throw std::invalid_argument("hdot: length mismatch");
  Complex s(0.0, 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) s += std::conj(x[i]) * y[i];
  return s;
}

CMatrix outer(const std::vector<Complex>& x, const std::vector<Complex>& y) {
  CMatrix m(x.size(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    for (std::size_t j = 0; j < y.size(); ++j)
      m(i, j) = x[i] * std::conj(y[j]);
  return m;
}

CMatrix inverse(const CMatrix& a) {
  const std::size_t n = a.rows();
  if (a.cols() != n)
    throw std::invalid_argument("inverse: matrix must be square");
  CMatrix aug = a;
  CMatrix inv = CMatrix::identity(n);
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot on the largest magnitude in this column.
    std::size_t pivot = col;
    double best = std::abs(aug(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double m = std::abs(aug(r, col));
      if (m > best) {
        best = m;
        pivot = r;
      }
    }
    if (best < 1e-300) throw std::runtime_error("inverse: singular matrix");
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(aug(pivot, c), aug(col, c));
        std::swap(inv(pivot, c), inv(col, c));
      }
    }
    const Complex d = aug(col, col);
    for (std::size_t c = 0; c < n; ++c) {
      aug(col, c) /= d;
      inv(col, c) /= d;
    }
    for (std::size_t r = 0; r < n; ++r) {
      if (r == col) continue;
      const Complex f = aug(r, col);
      if (f == Complex(0.0, 0.0)) continue;
      for (std::size_t c = 0; c < n; ++c) {
        aug(r, c) -= f * aug(col, c);
        inv(r, c) -= f * inv(col, c);
      }
    }
  }
  return inv;
}

}  // namespace echoimage::linalg
