#ifndef FEDCROSS_NN_FLATTEN_H_
#define FEDCROSS_NN_FLATTEN_H_

#include <string>

#include "nn/layer.h"

namespace fedcross::nn {

// Reshapes [batch, d1, d2, ...] to [batch, d1*d2*...]; backward restores the
// original shape. Metadata-only on contiguous tensors.
class Flatten : public Layer {
 public:
  const Tensor& Forward(const Tensor& input) override;
  const Tensor& Backward(const Tensor& grad_output) override;
  std::string Name() const override { return "Flatten"; }

 private:
  Tensor::Shape cached_input_shape_;
  Tensor output_;
  Tensor grad_input_;
};

}  // namespace fedcross::nn

#endif  // FEDCROSS_NN_FLATTEN_H_
