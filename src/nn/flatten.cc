#include "nn/flatten.h"

namespace fedcross::nn {

const Tensor& Flatten::Forward(const Tensor& input) {
  FC_CHECK_GE(input.ndim(), 2);
  cached_input_shape_ = input.shape();
  int batch = input.dim(0);
  int features = static_cast<int>(input.numel() / batch);
  output_ = input;  // capacity-reusing copy
  output_.Reshape({batch, features});
  return output_;
}

const Tensor& Flatten::Backward(const Tensor& grad_output) {
  grad_input_ = grad_output;
  grad_input_.Reshape(cached_input_shape_);
  return grad_input_;
}

}  // namespace fedcross::nn
