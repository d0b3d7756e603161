// Kernel functions shared by the SVM and SVDD classifiers.
#pragma once

#include <cstddef>
#include <vector>

namespace echoimage::ml {

enum class KernelType { kLinear, kRbf };

struct KernelParams {
  KernelType type = KernelType::kRbf;
  double gamma = 1.0;  ///< RBF: exp(-gamma * ||a - b||^2)
};

/// k(a, b). Throws std::invalid_argument on dimension mismatch.
[[nodiscard]] double kernel_value(const KernelParams& params,
                                  const std::vector<double>& a,
                                  const std::vector<double>& b);

/// Full Gram matrix (row-major n x n) for a dataset.
[[nodiscard]] std::vector<double> gram_matrix(
    const KernelParams& params, const std::vector<std::vector<double>>& x);

/// Median heuristic: gamma = 1 / median(||x_i - x_j||^2) over (a sample of)
/// training pairs. Robust when feature variances are heterogeneous — the
/// typical pair then sits at k ~ exp(-1) instead of collapsing the Gram
/// matrix to the identity.
[[nodiscard]] double rbf_gamma_median(const std::vector<std::vector<double>>& x,
                                      std::size_t max_pairs = 2000);

}  // namespace echoimage::ml
