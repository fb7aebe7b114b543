#include "fl/flat_ops.h"

#include "tensor/tensor_ops.h"
#include "util/check.h"

namespace fedcross::fl::flat_ops {

void LinearCombine(float a, const FlatParams& x, float b, const FlatParams& y,
                   FlatParams& dst) {
  FC_CHECK_EQ(x.size(), y.size());
  dst.resize(x.size());
  const float* __restrict__ xp = x.data();
  const float* __restrict__ yp = y.data();
  float* __restrict__ dp = dst.data();
  std::size_t size = x.size();
  for (std::size_t i = 0; i < size; ++i) dp[i] = a * xp[i] + b * yp[i];
}

void AddInto(FlatParams& dst, const FlatParams& src) {
  FC_CHECK_EQ(dst.size(), src.size());
  const float* __restrict__ sp = src.data();
  float* __restrict__ dp = dst.data();
  std::size_t size = dst.size();
  for (std::size_t i = 0; i < size; ++i) dp[i] += sp[i];
}

void Axpy(FlatParams& dst, float factor, const FlatParams& src) {
  FC_CHECK_EQ(dst.size(), src.size());
  AxpyRange(dst.data(), factor, src.data(), dst.size());
}

void AxpyRange(float* dst, float factor, const float* src, std::size_t n) {
  const float* __restrict__ sp = src;
  float* __restrict__ dp = dst;
  for (std::size_t i = 0; i < n; ++i) dp[i] += factor * sp[i];
}

void Scale(FlatParams& dst, float factor) {
  float* __restrict__ dp = dst.data();
  std::size_t size = dst.size();
  for (std::size_t i = 0; i < size; ++i) dp[i] *= factor;
}

void Subtract(const FlatParams& src, const FlatParams& ref, FlatParams& dst) {
  FC_CHECK_EQ(src.size(), ref.size());
  dst.resize(src.size());
  const float* __restrict__ sp = src.data();
  const float* __restrict__ rp = ref.data();
  float* __restrict__ dp = dst.data();
  std::size_t size = src.size();
  for (std::size_t i = 0; i < size; ++i) dp[i] = sp[i] - rp[i];
}

double CosineSimilarity(const FlatParams& x, const FlatParams& y) {
  // The fused multi-lane pass lives with the other raw-buffer numeric
  // kernels in tensor_ops; this is the fl-layer entry point.
  return ops::CosineSimilarity(x, y);
}

}  // namespace fedcross::fl::flat_ops
