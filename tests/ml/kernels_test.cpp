#include "ml/kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace echoimage::ml {
namespace {

TEST(Kernels, LinearIsDotProduct) {
  const KernelParams k{KernelType::kLinear, 0.0};
  EXPECT_DOUBLE_EQ(kernel_value(k, {1.0, 2.0}, {3.0, 4.0}), 11.0);
}

TEST(Kernels, RbfOfIdenticalPointsIsOne) {
  const KernelParams k{KernelType::kRbf, 0.5};
  EXPECT_DOUBLE_EQ(kernel_value(k, {1.0, -2.0}, {1.0, -2.0}), 1.0);
}

TEST(Kernels, RbfDecaysWithDistance) {
  const KernelParams k{KernelType::kRbf, 1.0};
  const double near = kernel_value(k, {0.0}, {0.5});
  const double far = kernel_value(k, {0.0}, {2.0});
  EXPECT_GT(near, far);
  EXPECT_NEAR(near, std::exp(-0.25), 1e-12);
  EXPECT_NEAR(far, std::exp(-4.0), 1e-12);
}

TEST(Kernels, RbfGammaControlsWidth) {
  const KernelParams narrow{KernelType::kRbf, 10.0};
  const KernelParams wide{KernelType::kRbf, 0.1};
  EXPECT_LT(kernel_value(narrow, {0.0}, {1.0}),
            kernel_value(wide, {0.0}, {1.0}));
}

TEST(Kernels, DimensionMismatchThrows) {
  const KernelParams k{KernelType::kRbf, 1.0};
  EXPECT_THROW((void)kernel_value(k, {1.0}, {1.0, 2.0}),
               std::invalid_argument);
}

TEST(GramMatrix, SymmetricWithUnitDiagonal) {
  const KernelParams k{KernelType::kRbf, 0.3};
  const std::vector<std::vector<double>> x{{0.0, 0.0}, {1.0, 0.0}, {0.0, 2.0}};
  const std::vector<double> g = gram_matrix(k, x);
  ASSERT_EQ(g.size(), 9u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(g[i * 3 + i], 1.0);
    for (std::size_t j = 0; j < 3; ++j)
      EXPECT_DOUBLE_EQ(g[i * 3 + j], g[j * 3 + i]);
  }
}

TEST(GammaMedian, InverseOfMedianPairDistance) {
  // Three collinear points 0, 1, 3: pair d^2 = {1, 9, 4}; median = 4.
  const std::vector<std::vector<double>> x{{0.0}, {1.0}, {3.0}};
  EXPECT_NEAR(rbf_gamma_median(x), 0.25, 1e-9);
}

TEST(GammaMedian, RobustToDuplicatePoints) {
  const std::vector<std::vector<double>> x{{0.0}, {0.0}, {5.0}};
  // d^2 = {0, 25, 25}; median = 25.
  EXPECT_NEAR(rbf_gamma_median(x), 1.0 / 25.0, 1e-9);
}

TEST(GammaMedian, DegenerateCasesFallBack) {
  EXPECT_DOUBLE_EQ(rbf_gamma_median({}), 1.0);
  EXPECT_DOUBLE_EQ(rbf_gamma_median({{1.0}}), 1.0);
  const std::vector<std::vector<double>> same(4, {3.0});
  EXPECT_DOUBLE_EQ(rbf_gamma_median(same), 1.0);  // zero median distance
}

TEST(GammaMedian, SamplesLargeDatasets) {
  // 200 points -> 19900 pairs; the sampler must still return a sane value.
  std::vector<std::vector<double>> x;
  for (int i = 0; i < 200; ++i)
    x.push_back({static_cast<double>(i % 7), static_cast<double>(i % 3)});
  const double g = rbf_gamma_median(x, 500);
  EXPECT_GT(g, 0.0);
  EXPECT_LT(g, 10.0);
}

}  // namespace
}  // namespace echoimage::ml
