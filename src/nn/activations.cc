#include "nn/activations.h"

#include "nn/kernels.h"

namespace fedcross::nn {

// The arithmetic lives in nn/kernels.cc so the execution-plan runtime and
// this layer path share one compiled loop per op (bit-identical results).

const Tensor& Relu::Forward(const Tensor& input) {
  output_.ResizeTo(input.shape());
  kernels::ReluForward(input.data(), output_.data(), output_.numel());
  return output_;
}

const Tensor& Relu::Backward(const Tensor& grad_output) {
  FC_CHECK(grad_output.SameShape(output_));
  grad_input_.ResizeTo(grad_output.shape());
  kernels::ReluBackward(output_.data(), grad_output.data(),
                        grad_input_.data(), grad_input_.numel());
  return grad_input_;
}

}  // namespace fedcross::nn
