#ifndef FEDCROSS_NN_RESIDUAL_H_
#define FEDCROSS_NN_RESIDUAL_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/norm.h"

namespace fedcross::nn {

// Basic ResNet block (He et al., 2016):
//   main: conv3x3(stride) -> GN -> ReLU -> conv3x3(1) -> GN
//   skip: identity, or conv1x1(stride) -> GN when channels/stride change
//   out:  ReLU(main + skip)
class ResidualBlock : public Layer {
 public:
  ResidualBlock(int in_channels, int out_channels, int stride, int gn_groups,
                util::Rng& rng);

  const Tensor& Forward(const Tensor& input) override;
  const Tensor& Backward(const Tensor& grad_output) override;
  void CollectParams(std::vector<Param*>& out) override;
  std::string Name() const override { return "ResidualBlock"; }

  // Plan-compiler access to the sub-layers, indexed in CollectParams order
  // (the contract the plan's sub-op bindings rely on). The projection
  // accessors return null for identity-skip blocks.
  enum SubLayer {
    kConv1 = 0,
    kNorm1 = 1,
    kConv2 = 2,
    kNorm2 = 3,
    kProjConv = 4,
    kProjNorm = 5,
  };
  Layer* sub_layer(int index);
  bool has_projection() const { return has_projection_; }

 private:
  bool has_projection_;
  Conv2d conv1_;
  GroupNorm norm1_;
  Relu relu1_;
  Conv2d conv2_;
  GroupNorm norm2_;
  std::unique_ptr<Conv2d> proj_conv_;
  std::unique_ptr<GroupNorm> proj_norm_;
  Relu relu_out_;
  Tensor sum_;         // main-path output + skip, reused across batches
  Tensor grad_input_;  // main-path input grad + skip grad
};

}  // namespace fedcross::nn

#endif  // FEDCROSS_NN_RESIDUAL_H_
