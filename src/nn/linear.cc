#include "nn/linear.h"

#include "nn/init.h"
#include "nn/kernels.h"
#include "tensor/tensor_ops.h"

namespace fedcross::nn {

Linear::Linear(int in_features, int out_features, util::Rng& rng)
    : in_features_(in_features),
      out_features_(out_features),
      weight_(KaimingNormal({in_features, out_features}, in_features, rng)),
      bias_(Tensor::Zeros({out_features})) {
  FC_CHECK_GT(in_features, 0);
  FC_CHECK_GT(out_features, 0);
}

const Tensor& Linear::Forward(const Tensor& input) {
  FC_CHECK_EQ(input.ndim(), 2);
  FC_CHECK_EQ(input.dim(1), in_features_);
  cached_input_ = input;
  int batch = input.dim(0);
  output_.ResizeTo({batch, out_features_});
  ops::Gemm(false, false, batch, out_features_, in_features_, 1.0f,
            input.data(), in_features_, weight_.value.data(), out_features_,
            0.0f, output_.data(), out_features_);
  kernels::BiasAddRows(output_.data(), bias_.value.data(), batch,
                       out_features_);
  return output_;
}

const Tensor& Linear::Backward(const Tensor& grad_output) {
  FC_CHECK_EQ(grad_output.ndim(), 2);
  FC_CHECK_EQ(grad_output.dim(1), out_features_);
  int batch = grad_output.dim(0);
  FC_CHECK_EQ(batch, cached_input_.dim(0));

  // dW += X^T * dY
  ops::Gemm(true, false, in_features_, out_features_, batch, 1.0f,
            cached_input_.data(), in_features_, grad_output.data(),
            out_features_, 1.0f, weight_.grad.data(), out_features_);
  // db += column sums of dY
  kernels::BiasGradRows(grad_output.data(), bias_.grad.data(), batch,
                        out_features_);
  // dX = dY * W^T
  grad_input_.ResizeTo({batch, in_features_});
  ops::Gemm(false, true, batch, in_features_, out_features_, 1.0f,
            grad_output.data(), out_features_, weight_.value.data(),
            out_features_, 0.0f, grad_input_.data(), in_features_);
  return grad_input_;
}

void Linear::CollectParams(std::vector<Param*>& out) {
  out.push_back(&weight_);
  out.push_back(&bias_);
}

}  // namespace fedcross::nn
