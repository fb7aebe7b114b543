#include "nn/residual.h"

#include "nn/kernels.h"

namespace fedcross::nn {

ResidualBlock::ResidualBlock(int in_channels, int out_channels, int stride,
                             int gn_groups, util::Rng& rng)
    : has_projection_(stride != 1 || in_channels != out_channels),
      conv1_(in_channels, out_channels, /*kernel=*/3, stride, /*pad=*/1, rng),
      norm1_(out_channels, gn_groups),
      conv2_(out_channels, out_channels, /*kernel=*/3, /*stride=*/1,
             /*pad=*/1, rng),
      norm2_(out_channels, gn_groups) {
  if (has_projection_) {
    proj_conv_ = std::make_unique<Conv2d>(in_channels, out_channels,
                                          /*kernel=*/1, stride, /*pad=*/0, rng);
    proj_norm_ = std::make_unique<GroupNorm>(out_channels, gn_groups);
  }
}

const Tensor& ResidualBlock::Forward(const Tensor& input) {
  const Tensor* x = &conv1_.Forward(input);
  x = &norm1_.Forward(*x);
  x = &relu1_.Forward(*x);
  x = &conv2_.Forward(*x);
  sum_ = norm2_.Forward(*x);  // copy: we mutate it with the skip add

  // The skip add goes through the shared kernel so the plan executor's kAdd
  // op evaluates the identical expression in the identical TU.
  if (has_projection_) {
    const Tensor& skip = proj_norm_->Forward(proj_conv_->Forward(input));
    kernels::Add(sum_.data(), skip.data(), sum_.data(), sum_.numel());
  } else {
    kernels::Add(sum_.data(), input.data(), sum_.data(), sum_.numel());
  }
  return relu_out_.Forward(sum_);
}

const Tensor& ResidualBlock::Backward(const Tensor& grad_output) {
  // grad_sum lives in relu_out_ and stays valid while both branch
  // backwards run (neither touches relu_out_).
  const Tensor& grad_sum = relu_out_.Backward(grad_output);

  // Main path.
  const Tensor* g = &norm2_.Backward(grad_sum);
  g = &conv2_.Backward(*g);
  g = &relu1_.Backward(*g);
  g = &norm1_.Backward(*g);
  grad_input_ = conv1_.Backward(*g);  // copy: we add the skip grad below

  // Skip path.
  if (has_projection_) {
    const Tensor& grad_skip =
        proj_conv_->Backward(proj_norm_->Backward(grad_sum));
    kernels::Add(grad_input_.data(), grad_skip.data(), grad_input_.data(),
                 grad_input_.numel());
  } else {
    kernels::Add(grad_input_.data(), grad_sum.data(), grad_input_.data(),
                 grad_input_.numel());
  }
  return grad_input_;
}

Layer* ResidualBlock::sub_layer(int index) {
  switch (index) {
    case kConv1: return &conv1_;
    case kNorm1: return &norm1_;
    case kConv2: return &conv2_;
    case kNorm2: return &norm2_;
    case kProjConv: return proj_conv_.get();
    case kProjNorm: return proj_norm_.get();
    default: return nullptr;
  }
}

void ResidualBlock::CollectParams(std::vector<Param*>& out) {
  conv1_.CollectParams(out);
  norm1_.CollectParams(out);
  conv2_.CollectParams(out);
  norm2_.CollectParams(out);
  if (has_projection_) {
    proj_conv_->CollectParams(out);
    proj_norm_->CollectParams(out);
  }
}

}  // namespace fedcross::nn
