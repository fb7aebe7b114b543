#include "nn/pooling.h"

#include "nn/kernels.h"
#include "tensor/tensor_ops.h"

namespace fedcross::nn {

MaxPool2d::MaxPool2d(int kernel, int stride) : kernel_(kernel), stride_(stride) {
  FC_CHECK_GT(kernel, 0);
  FC_CHECK_GT(stride, 0);
}

const Tensor& MaxPool2d::Forward(const Tensor& input) {
  FC_CHECK_EQ(input.ndim(), 4);
  int batch = input.dim(0);
  int channels = input.dim(1);
  int height = input.dim(2);
  int width = input.dim(3);
  int out_h = ops::ConvOutSize(height, kernel_, stride_, /*pad=*/0);
  int out_w = ops::ConvOutSize(width, kernel_, stride_, /*pad=*/0);

  cached_input_shape_ = input.shape();
  output_.ResizeTo({batch, channels, out_h, out_w});
  if (static_cast<std::int64_t>(argmax_.size()) != output_.numel()) {
    argmax_.resize(output_.numel());
  }

  kernels::MaxPoolForward(input.data(), output_.data(), argmax_.data(), batch,
                          channels, height, width, out_h, out_w, kernel_,
                          stride_);
  return output_;
}

const Tensor& MaxPool2d::Backward(const Tensor& grad_output) {
  FC_CHECK_EQ(grad_output.numel(), static_cast<std::int64_t>(argmax_.size()));
  grad_input_.ResizeTo(cached_input_shape_);
  kernels::MaxPoolBackward(grad_output.data(), argmax_.data(),
                           grad_output.numel(), grad_input_.data(),
                           grad_input_.numel());
  return grad_input_;
}

const Tensor& GlobalAvgPool::Forward(const Tensor& input) {
  FC_CHECK_EQ(input.ndim(), 4);
  int batch = input.dim(0);
  int channels = input.dim(1);
  int area = input.dim(2) * input.dim(3);
  cached_input_shape_ = input.shape();

  output_.ResizeTo({batch, channels});
  kernels::GlobalAvgPoolForward(input.data(), output_.data(), batch, channels,
                                area);
  return output_;
}

const Tensor& GlobalAvgPool::Backward(const Tensor& grad_output) {
  FC_CHECK_EQ(grad_output.ndim(), 2);
  int batch = cached_input_shape_[0];
  int channels = cached_input_shape_[1];
  int area = cached_input_shape_[2] * cached_input_shape_[3];
  FC_CHECK_EQ(grad_output.dim(0), batch);
  FC_CHECK_EQ(grad_output.dim(1), channels);

  grad_input_.ResizeTo(cached_input_shape_);
  kernels::GlobalAvgPoolBackward(grad_output.data(), grad_input_.data(), batch,
                                 channels, area);
  return grad_input_;
}

}  // namespace fedcross::nn
