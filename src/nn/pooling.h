#ifndef FEDCROSS_NN_POOLING_H_
#define FEDCROSS_NN_POOLING_H_

#include <string>
#include <vector>

#include "nn/layer.h"

namespace fedcross::nn {

// Max pooling over non-overlapping-or-strided square windows.
// input/output: [batch, channels, H, W] -> [batch, channels, H', W'].
class MaxPool2d : public Layer {
 public:
  MaxPool2d(int kernel, int stride);

  const Tensor& Forward(const Tensor& input) override;
  const Tensor& Backward(const Tensor& grad_output) override;
  std::string Name() const override { return "MaxPool2d"; }

  int kernel() const { return kernel_; }
  int stride() const { return stride_; }

 private:
  int kernel_;
  int stride_;
  Tensor::Shape cached_input_shape_;
  // Flat input index of the argmax for every output element.
  std::vector<std::int64_t> argmax_;
  Tensor output_;
  Tensor grad_input_;
};

// Global average pooling: [batch, channels, H, W] -> [batch, channels].
class GlobalAvgPool : public Layer {
 public:
  const Tensor& Forward(const Tensor& input) override;
  const Tensor& Backward(const Tensor& grad_output) override;
  std::string Name() const override { return "GlobalAvgPool"; }

 private:
  Tensor::Shape cached_input_shape_;
  Tensor output_;
  Tensor grad_input_;
};

}  // namespace fedcross::nn

#endif  // FEDCROSS_NN_POOLING_H_
