#include "ml/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace echoimage::ml {

double kernel_value(const KernelParams& params, const std::vector<double>& a,
                    const std::vector<double>& b) {
  if (a.size() != b.size())
    throw std::invalid_argument("kernel_value: dimension mismatch");
  switch (params.type) {
    case KernelType::kLinear: {
      double s = 0.0;
      for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
      return s;
    }
    case KernelType::kRbf: {
      double d2 = 0.0;
      for (std::size_t i = 0; i < a.size(); ++i) {
        const double d = a[i] - b[i];
        d2 += d * d;
      }
      return std::exp(-params.gamma * d2);
    }
  }
  throw std::invalid_argument("kernel_value: unknown kernel type");
}

std::vector<double> gram_matrix(const KernelParams& params,
                                const std::vector<std::vector<double>>& x) {
  const std::size_t n = x.size();
  std::vector<double> k(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v = kernel_value(params, x[i], x[j]);
      k[i * n + j] = v;
      k[j * n + i] = v;
    }
  }
  return k;
}

double rbf_gamma_median(const std::vector<std::vector<double>>& x,
                        std::size_t max_pairs) {
  const std::size_t n = x.size();
  if (n < 2) return 1.0;
  std::vector<double> d2s;
  d2s.reserve(max_pairs);
  // Deterministic strided pair sampling keeps large datasets cheap.
  const std::size_t total_pairs = n * (n - 1) / 2;
  const std::size_t stride = std::max<std::size_t>(1, total_pairs / max_pairs);
  std::size_t counter = 0;
  for (std::size_t i = 0; i < n && d2s.size() < max_pairs; ++i) {
    for (std::size_t j = i + 1; j < n && d2s.size() < max_pairs; ++j) {
      if (counter++ % stride != 0) continue;
      double d2 = 0.0;
      for (std::size_t k = 0; k < x[i].size(); ++k) {
        const double d = x[i][k] - x[j][k];
        d2 += d * d;
      }
      d2s.push_back(d2);
    }
  }
  if (d2s.empty()) return 1.0;
  std::nth_element(d2s.begin(), d2s.begin() + d2s.size() / 2, d2s.end());
  const double med = d2s[d2s.size() / 2];
  return med > 1e-12 ? 1.0 / med : 1.0;
}

}  // namespace echoimage::ml
