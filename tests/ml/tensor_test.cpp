#include "ml/tensor.hpp"

#include <gtest/gtest.h>

namespace echoimage::ml {
namespace {

TEST(Matrix2D, IndexingIsRowMajor) {
  Matrix2D m(2, 3);
  m(0, 2) = 5.0;
  m(1, 0) = 7.0;
  EXPECT_DOUBLE_EQ(m.data()[2], 5.0);
  EXPECT_DOUBLE_EQ(m.data()[3], 7.0);
  EXPECT_EQ(m.size(), 6u);
}

TEST(Matrix2D, FillValue) {
  const Matrix2D m(2, 2, 1.5);
  for (const double v : m.data()) EXPECT_DOUBLE_EQ(v, 1.5);
}

TEST(Tensor3, HwcLayout) {
  Tensor3 t(2, 2, 3);
  t.at(0, 1, 2) = 9.0;
  // index = (y * w + x) * c + ch = (0*2+1)*3+2 = 5.
  EXPECT_DOUBLE_EQ(t.data()[5], 9.0);
  EXPECT_EQ(t.size(), 12u);
}

TEST(ToTensor, SingleChannelCopy) {
  Matrix2D m(2, 2);
  m(0, 0) = 1.0;
  m(1, 1) = 4.0;
  const Tensor3 t = to_tensor(m);
  EXPECT_EQ(t.channels(), 1u);
  EXPECT_DOUBLE_EQ(t.at(0, 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(t.at(1, 1, 0), 4.0);
}

TEST(BilinearResize, IdentityWhenSameSize) {
  Matrix2D m(3, 3);
  for (std::size_t i = 0; i < 9; ++i) m.data()[i] = static_cast<double>(i);
  const Matrix2D r = bilinear_resize(m, 3, 3);
  for (std::size_t i = 0; i < 9; ++i)
    EXPECT_DOUBLE_EQ(r.data()[i], m.data()[i]);
}

TEST(BilinearResize, UpscaleInterpolatesMidpoints) {
  Matrix2D m(2, 2);
  m(0, 0) = 0.0;
  m(0, 1) = 2.0;
  m(1, 0) = 4.0;
  m(1, 1) = 6.0;
  const Matrix2D r = bilinear_resize(m, 3, 3);
  EXPECT_DOUBLE_EQ(r(0, 1), 1.0);  // between 0 and 2
  EXPECT_DOUBLE_EQ(r(1, 0), 2.0);  // between 0 and 4
  EXPECT_DOUBLE_EQ(r(1, 1), 3.0);  // center
  EXPECT_DOUBLE_EQ(r(2, 2), 6.0);  // corner preserved
}

TEST(BilinearResize, DownscalePreservesCorners) {
  Matrix2D m(5, 5);
  m(0, 0) = 1.0;
  m(0, 4) = 2.0;
  m(4, 0) = 3.0;
  m(4, 4) = 4.0;
  const Matrix2D r = bilinear_resize(m, 2, 2);
  EXPECT_DOUBLE_EQ(r(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(r(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(r(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(r(1, 1), 4.0);
}

TEST(BilinearResize, ConstantImageStaysConstant) {
  const Matrix2D m(7, 5, 3.3);
  const Matrix2D r = bilinear_resize(m, 13, 11);
  for (const double v : r.data()) EXPECT_NEAR(v, 3.3, 1e-12);
}

TEST(BilinearResize, DegenerateTargetsHandled) {
  const Matrix2D m(4, 4, 1.0);
  EXPECT_EQ(bilinear_resize(m, 0, 4).size(), 0u);
  const Matrix2D one = bilinear_resize(m, 1, 1);
  EXPECT_EQ(one.size(), 1u);
  EXPECT_DOUBLE_EQ(one(0, 0), 1.0);
}

}  // namespace
}  // namespace echoimage::ml
