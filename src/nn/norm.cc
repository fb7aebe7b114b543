#include "nn/norm.h"

#include "nn/kernels.h"

namespace fedcross::nn {

GroupNorm::GroupNorm(int channels, int groups, float eps)
    : channels_(channels),
      groups_(groups),
      eps_(eps),
      gamma_(Tensor::Full({channels}, 1.0f)),
      beta_(Tensor::Zeros({channels})) {
  FC_CHECK_GT(groups, 0);
  FC_CHECK_EQ(channels % groups, 0) << "channels must divide into groups";
}

const Tensor& GroupNorm::Forward(const Tensor& input) {
  FC_CHECK_EQ(input.ndim(), 4);
  FC_CHECK_EQ(input.dim(1), channels_);
  int batch = input.dim(0);
  int area = input.dim(2) * input.dim(3);

  cached_xhat_.ResizeTo(input.shape());
  cached_inv_std_.assign(static_cast<std::size_t>(batch) * groups_, 0.0f);
  output_.ResizeTo(input.shape());

  kernels::GroupNormForward(input.data(), output_.data(), cached_xhat_.data(),
                            cached_inv_std_.data(), gamma_.value.data(),
                            beta_.value.data(), batch, channels_, groups_,
                            area, eps_);
  return output_;
}

const Tensor& GroupNorm::Backward(const Tensor& grad_output) {
  FC_CHECK(grad_output.SameShape(cached_xhat_));
  int batch = grad_output.dim(0);
  int area = grad_output.dim(2) * grad_output.dim(3);

  grad_input_.ResizeTo(grad_output.shape());
  kernels::GroupNormBackward(grad_output.data(), cached_xhat_.data(),
                             cached_inv_std_.data(), gamma_.value.data(),
                             gamma_.grad.data(), beta_.grad.data(),
                             grad_input_.data(), batch, channels_, groups_,
                             area);
  return grad_input_;
}

void GroupNorm::CollectParams(std::vector<Param*>& out) {
  out.push_back(&gamma_);
  out.push_back(&beta_);
}

}  // namespace fedcross::nn
