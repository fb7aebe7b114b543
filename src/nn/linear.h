#ifndef FEDCROSS_NN_LINEAR_H_
#define FEDCROSS_NN_LINEAR_H_

#include <string>
#include <vector>

#include "nn/layer.h"
#include "util/rng.h"

namespace fedcross::nn {

// Fully-connected layer: output = input * W + b.
// input:  [batch, in_features]
// W:      [in_features, out_features]
// b:      [out_features]
// output: [batch, out_features]
class Linear : public Layer {
 public:
  Linear(int in_features, int out_features, util::Rng& rng);

  const Tensor& Forward(const Tensor& input) override;
  const Tensor& Backward(const Tensor& grad_output) override;
  void CollectParams(std::vector<Param*>& out) override;
  std::string Name() const override { return "Linear"; }

  int in_features() const { return in_features_; }
  int out_features() const { return out_features_; }

  // Direct parameter access for the execution-plan runtime.
  Param& weight_param() { return weight_; }
  Param& bias_param() { return bias_; }

 private:
  int in_features_;
  int out_features_;
  Param weight_;
  Param bias_;
  Tensor cached_input_;
  Tensor output_;
  Tensor grad_input_;
};

}  // namespace fedcross::nn

#endif  // FEDCROSS_NN_LINEAR_H_
