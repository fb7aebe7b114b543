#ifndef FEDCROSS_NN_CONV2D_H_
#define FEDCROSS_NN_CONV2D_H_

#include <string>
#include <vector>

#include "nn/layer.h"
#include "util/rng.h"

namespace fedcross::nn {

// 2-d convolution via im2col + GEMM.
// input:  [batch, in_channels, height, width]
// weight: [out_channels, in_channels * kernel * kernel]
// bias:   [out_channels]
// output: [batch, out_channels, out_h, out_w]
class Conv2d : public Layer {
 public:
  Conv2d(int in_channels, int out_channels, int kernel, int stride, int pad,
         util::Rng& rng);

  const Tensor& Forward(const Tensor& input) override;
  const Tensor& Backward(const Tensor& grad_output) override;
  void CollectParams(std::vector<Param*>& out) override;
  std::string Name() const override { return "Conv2d"; }

  int in_channels() const { return in_channels_; }
  int out_channels() const { return out_channels_; }
  int kernel() const { return kernel_; }
  int stride() const { return stride_; }
  int pad() const { return pad_; }

  // Direct parameter access for the execution-plan runtime.
  Param& weight_param() { return weight_; }
  Param& bias_param() { return bias_; }

 private:
  int in_channels_;
  int out_channels_;
  int kernel_;
  int stride_;
  int pad_;
  Param weight_;
  Param bias_;
  // Cached per-image im2col matrices from the last Forward (one per batch
  // element), plus the input spatial geometry. Both this and the backward
  // dColumns scratch are reused across steps instead of reallocated.
  std::vector<Tensor> cached_columns_;
  Tensor grad_columns_;
  Tensor output_;
  Tensor grad_input_;
  int cached_height_ = 0;
  int cached_width_ = 0;
};

}  // namespace fedcross::nn

#endif  // FEDCROSS_NN_CONV2D_H_
