#ifndef FEDCROSS_NN_NORM_H_
#define FEDCROSS_NN_NORM_H_

#include <string>
#include <vector>

#include "nn/layer.h"

namespace fedcross::nn {

// Group normalisation (Wu & He, 2018) over [batch, channels, H, W].
// Channels are split into `groups`; each (sample, group) slice is
// normalised to zero mean / unit variance, then scaled and shifted by the
// learned per-channel gamma/beta.
//
// GroupNorm is chosen over BatchNorm for the ResNet/VGG substrates because
// it has no batch-statistics state, which keeps FL model aggregation a pure
// parameter-vector operation (no running-stat averaging subtleties).
class GroupNorm : public Layer {
 public:
  GroupNorm(int channels, int groups, float eps = 1e-5f);

  const Tensor& Forward(const Tensor& input) override;
  const Tensor& Backward(const Tensor& grad_output) override;
  void CollectParams(std::vector<Param*>& out) override;
  std::string Name() const override { return "GroupNorm"; }

  int channels() const { return channels_; }
  int groups() const { return groups_; }
  float eps() const { return eps_; }

  // Direct parameter access for the execution-plan runtime.
  Param& gamma_param() { return gamma_; }
  Param& beta_param() { return beta_; }

 private:
  int channels_;
  int groups_;
  float eps_;
  Param gamma_;
  Param beta_;
  Tensor cached_xhat_;
  std::vector<float> cached_inv_std_;  // per (batch, group)
  Tensor output_;
  Tensor grad_input_;
};

}  // namespace fedcross::nn

#endif  // FEDCROSS_NN_NORM_H_
