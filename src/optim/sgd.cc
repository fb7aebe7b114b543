#include "optim/sgd.h"

#include <cmath>

namespace fedcross::optim {

Sgd::Sgd(std::vector<nn::Param*> params, SgdOptions options)
    : params_(std::move(params)), options_(options) {
  velocity_.reserve(params_.size());
  for (nn::Param* param : params_) {
    velocity_.push_back(Tensor::Zeros(param->value.shape()));
  }
}

void Sgd::Configure(SgdOptions options) {
  options_ = options;
  for (Tensor& vel : velocity_) vel.Fill(0.0f);
}

void Sgd::Step() {
  // Optional global-norm gradient clipping.
  float clip_scale = 1.0f;
  if (options_.grad_clip_norm > 0.0f) {
    double total = 0.0;
    for (nn::Param* param : params_) total += param->grad.SquaredL2Norm();
    float norm = static_cast<float>(std::sqrt(total));
    if (norm > options_.grad_clip_norm) {
      clip_scale = options_.grad_clip_norm / norm;
    }
  }

  for (std::size_t i = 0; i < params_.size(); ++i) {
    nn::Param* param = params_[i];
    float* value = param->value.data();
    const float* grad = param->grad.data();
    float* vel = velocity_[i].data();
    for (std::int64_t j = 0; j < param->value.numel(); ++j) {
      float g = grad[j] * clip_scale + options_.weight_decay * value[j];
      if (options_.momentum != 0.0f) {
        vel[j] = options_.momentum * vel[j] + g;
        g = vel[j];
      }
      value[j] -= options_.lr * g;
    }
  }
}

}  // namespace fedcross::optim
