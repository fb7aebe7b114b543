#ifndef FEDCROSS_NN_ACTIVATIONS_H_
#define FEDCROSS_NN_ACTIVATIONS_H_

#include <string>

#include "nn/layer.h"

namespace fedcross::nn {

// Elementwise max(0, x). Works on tensors of any rank. Backward derives the
// mask from the cached output (out == 0 iff in <= 0), so no input copy is
// kept.
class Relu : public Layer {
 public:
  const Tensor& Forward(const Tensor& input) override;
  const Tensor& Backward(const Tensor& grad_output) override;
  std::string Name() const override { return "Relu"; }

 private:
  Tensor output_;
  Tensor grad_input_;
};

}  // namespace fedcross::nn

#endif  // FEDCROSS_NN_ACTIVATIONS_H_
