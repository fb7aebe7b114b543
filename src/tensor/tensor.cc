#include "tensor/tensor.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <sstream>

namespace fedcross {
namespace {

std::int64_t ShapeNumel(const Tensor::Shape& shape) {
  std::int64_t numel = 1;
  for (int dim : shape) {
    FC_CHECK_GT(dim, 0) << "tensor dims must be positive";
    numel *= dim;
  }
  return shape.empty() ? 0 : numel;
}

// Relaxed is enough: tests only read the counter from quiescent points.
std::atomic<std::uint64_t> g_heap_allocations{0};

void CountAllocation(std::size_t elements) {
  if (elements > 0) {
    g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

std::uint64_t Tensor::HeapAllocations() {
  return g_heap_allocations.load(std::memory_order_relaxed);
}

void Tensor::ResetHeapAllocations() {
  g_heap_allocations.store(0, std::memory_order_relaxed);
}

Tensor::Tensor(Shape shape) : shape_(std::move(shape)) {
  CountAllocation(static_cast<std::size_t>(ShapeNumel(shape_)));
  data_.assign(ShapeNumel(shape_), 0.0f);
}

Tensor::Tensor(const Tensor& other)
    : shape_(other.shape_), data_(other.data_) {
  CountAllocation(data_.size());
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  if (other.data_.size() > data_.capacity()) CountAllocation(other.data_.size());
  shape_ = other.shape_;
  data_ = other.data_;  // vector copy-assign reuses capacity when possible
  return *this;
}

Tensor Tensor::Full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::FromVector(Shape shape, std::vector<float> values) {
  Tensor t;
  FC_CHECK_EQ(ShapeNumel(shape), static_cast<std::int64_t>(values.size()));
  CountAllocation(values.size());  // adopts a caller-allocated buffer
  t.shape_ = std::move(shape);
  t.data_ = std::move(values);
  return t;
}

Tensor Tensor::RandomNormal(Shape shape, util::Rng& rng, float mean,
                            float stddev) {
  Tensor t(std::move(shape));
  for (float& value : t.data_) {
    value = static_cast<float>(rng.Normal(mean, stddev));
  }
  return t;
}

Tensor Tensor::RandomUniform(Shape shape, util::Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (float& value : t.data_) {
    value = static_cast<float>(rng.Uniform(lo, hi));
  }
  return t;
}

int Tensor::dim(int axis) const {
  FC_CHECK_GE(axis, 0);
  FC_CHECK_LT(axis, ndim());
  return shape_[axis];
}

std::string Tensor::ShapeString() const {
  std::ostringstream out;
  out << "[";
  for (int i = 0; i < ndim(); ++i) {
    if (i > 0) out << ", ";
    out << shape_[i];
  }
  out << "]";
  return out.str();
}

Tensor& Tensor::Reshape(Shape shape) {
  FC_CHECK_EQ(ShapeNumel(shape), numel())
      << "reshape " << ShapeString() << " incompatible";
  shape_ = std::move(shape);
  return *this;
}

Tensor& Tensor::ResizeTo(const Shape& shape) {
  std::size_t count = static_cast<std::size_t>(ShapeNumel(shape));
  if (count > data_.capacity()) CountAllocation(count);
  data_.resize(count);
  shape_ = shape;  // small-vector copy-assign, reuses shape_'s capacity
  return *this;
}

float& Tensor::at(std::int64_t flat_index) {
  FC_CHECK_GE(flat_index, 0);
  FC_CHECK_LT(flat_index, numel());
  return data_[flat_index];
}

float Tensor::at(std::int64_t flat_index) const {
  FC_CHECK_GE(flat_index, 0);
  FC_CHECK_LT(flat_index, numel());
  return data_[flat_index];
}

float& Tensor::at(int row, int col) {
  FC_CHECK_EQ(ndim(), 2);
  FC_CHECK_GE(row, 0);
  FC_CHECK_LT(row, shape_[0]);
  FC_CHECK_GE(col, 0);
  FC_CHECK_LT(col, shape_[1]);
  return data_[static_cast<std::int64_t>(row) * shape_[1] + col];
}

float Tensor::at(int row, int col) const {
  return const_cast<Tensor*>(this)->at(row, col);
}

Tensor& Tensor::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
  return *this;
}

Tensor& Tensor::AddInPlace(const Tensor& other) {
  FC_CHECK(SameShape(other)) << ShapeString() << " vs " << other.ShapeString();
  const float* src = other.data();
  float* dst = data();
  for (std::int64_t i = 0; i < numel(); ++i) dst[i] += src[i];
  return *this;
}

Tensor& Tensor::SubInPlace(const Tensor& other) {
  FC_CHECK(SameShape(other)) << ShapeString() << " vs " << other.ShapeString();
  const float* src = other.data();
  float* dst = data();
  for (std::int64_t i = 0; i < numel(); ++i) dst[i] -= src[i];
  return *this;
}

Tensor& Tensor::MulInPlace(const Tensor& other) {
  FC_CHECK(SameShape(other)) << ShapeString() << " vs " << other.ShapeString();
  const float* src = other.data();
  float* dst = data();
  for (std::int64_t i = 0; i < numel(); ++i) dst[i] *= src[i];
  return *this;
}

Tensor& Tensor::Scale(float factor) {
  for (float& value : data_) value *= factor;
  return *this;
}

Tensor& Tensor::Axpy(float alpha, const Tensor& other) {
  FC_CHECK(SameShape(other)) << ShapeString() << " vs " << other.ShapeString();
  const float* src = other.data();
  float* dst = data();
  for (std::int64_t i = 0; i < numel(); ++i) dst[i] += alpha * src[i];
  return *this;
}

float Tensor::Sum() const {
  double total = 0.0;
  for (float value : data_) total += value;
  return static_cast<float>(total);
}

float Tensor::Mean() const {
  FC_CHECK_GT(numel(), 0);
  return Sum() / static_cast<float>(numel());
}

float Tensor::Max() const {
  FC_CHECK_GT(numel(), 0);
  return *std::max_element(data_.begin(), data_.end());
}

namespace {

typedef double Double8 __attribute__((vector_size(8 * sizeof(double))));

}  // namespace

float Tensor::SquaredL2Norm() const {
  // The serial chain at the bottom defines the bits, but it is
  // latency-bound, so sum first in 32 independent lanes (four 8-wide
  // accumulators) into B. Each term v^2 is exact in double and
  // non-negative, so B and the serial sum T both lie within gamma * S of
  // the exact sum S, gamma = (n + 64) u / (1 - (n + 64) u) with u = 2^-53
  // (no term passes through more than n + 64 additions in either order).
  // Hence |T - B| <= 2 gamma S <= 2.5 gamma B, and if that interval around
  // B lies strictly inside the rounding interval of (float)B, T rounds to
  // the same float. The 0.5 gamma B of slack covers the rounding in the
  // test itself. Otherwise (B near a float midpoint, non-finite, or
  // FLT_MAX-sized) run the serial loop.
  const float* values = data_.data();
  const std::size_t n = data_.size();
  constexpr std::size_t kChains = 4;
  constexpr std::size_t kStep = kChains * 8;
  Double8 acc[kChains] = {};
  std::size_t i = 0;
  for (; i + kStep <= n; i += kStep) {
    for (std::size_t c = 0; c < kChains; ++c) {
      const float* p = values + i + 8 * c;
      const Double8 w = {p[0], p[1], p[2], p[3], p[4], p[5], p[6], p[7]};
      acc[c] += w * w;
    }
  }
  const Double8 lanes = (acc[0] + acc[1]) + (acc[2] + acc[3]);
  double sum = 0.0;
  for (int lane = 0; lane < 8; ++lane) sum += lanes[lane];
  for (; i < n; ++i) sum += static_cast<double>(values[i]) * values[i];

  const float rounded = static_cast<float>(sum);
  if (std::isfinite(sum) && rounded < std::numeric_limits<float>::max()) {
    const double ku = (static_cast<double>(n) + 64.0) * 0x1p-53;
    const double slack = 2.5 * (ku / (1.0 - ku)) * sum;
    constexpr float kInf = std::numeric_limits<float>::infinity();
    const double below =
        (static_cast<double>(std::nextafter(rounded, -kInf)) + rounded) * 0.5;
    const double above =
        (static_cast<double>(std::nextafter(rounded, kInf)) + rounded) * 0.5;
    if (sum - below > slack && above - sum > slack) return rounded;
  }
  double total = 0.0;
  for (float value : data_) total += static_cast<double>(value) * value;
  return static_cast<float>(total);
}

float Tensor::L2Norm() const { return std::sqrt(SquaredL2Norm()); }

void Tensor::SerializeTo(std::vector<std::uint8_t>& out) const {
  auto append = [&out](const void* src, std::size_t size) {
    const auto* bytes = static_cast<const std::uint8_t*>(src);
    out.insert(out.end(), bytes, bytes + size);
  };
  std::int32_t ndims = ndim();
  append(&ndims, sizeof(ndims));
  for (int dim : shape_) {
    std::int32_t d = dim;
    append(&d, sizeof(d));
  }
  append(data_.data(), data_.size() * sizeof(float));
}

bool Tensor::DeserializeFrom(const std::vector<std::uint8_t>& in,
                             std::size_t& offset, Tensor& result) {
  auto read = [&](void* dst, std::size_t size) {
    if (offset + size > in.size()) return false;
    std::memcpy(dst, in.data() + offset, size);
    offset += size;
    return true;
  };
  std::int32_t ndims = 0;
  if (!read(&ndims, sizeof(ndims)) || ndims < 0 || ndims > 8) return false;
  Shape shape(ndims);
  std::int64_t numel = ndims == 0 ? 0 : 1;
  for (std::int32_t i = 0; i < ndims; ++i) {
    std::int32_t d = 0;
    if (!read(&d, sizeof(d)) || d <= 0) return false;
    shape[i] = d;
    numel *= d;
  }
  // Bounds-check before touching `result`, so a truncated buffer leaves it
  // untouched; then deserialize straight into its (possibly recycled)
  // storage instead of staging through a temporary vector.
  std::size_t payload = static_cast<std::size_t>(numel) * sizeof(float);
  if (offset + payload > in.size()) return false;
  result.ResizeTo(shape);
  return read(result.data(), payload);
}

Tensor operator+(const Tensor& a, const Tensor& b) {
  Tensor result = a;
  result.AddInPlace(b);
  return result;
}

Tensor operator-(const Tensor& a, const Tensor& b) {
  Tensor result = a;
  result.SubInPlace(b);
  return result;
}

Tensor operator*(float scalar, const Tensor& t) {
  Tensor result = t;
  result.Scale(scalar);
  return result;
}

}  // namespace fedcross
