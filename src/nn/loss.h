#ifndef FEDCROSS_NN_LOSS_H_
#define FEDCROSS_NN_LOSS_H_

#include <vector>

#include "tensor/tensor.h"

namespace fedcross::nn {

// Result of a loss evaluation on one mini-batch.
struct LossResult {
  float loss = 0.0f;       // mean loss over the batch
  int correct = 0;         // argmax matches label
  Tensor grad_logits;      // dLoss/dlogits (mean-reduced), same shape as logits
};

// Softmax cross-entropy over logits [batch, classes] with integer labels.
// The returned gradient is (softmax - onehot) / batch, ready to feed into
// Sequential::Backward.
class CrossEntropyLoss {
 public:
  // `compute_grad=false` skips the gradient (evaluation-only passes).
  LossResult Compute(const Tensor& logits, const std::vector<int>& labels,
                     bool compute_grad = true) const;
  // In-place variant: reuses `result` (in particular result.grad_logits'
  // storage) instead of allocating a fresh LossResult per batch. The
  // grad_logits tensor is used as softmax scratch even when
  // compute_grad=false, so its contents are meaningful only when
  // compute_grad=true.
  void Compute(const Tensor& logits, const std::vector<int>& labels,
               LossResult& result, bool compute_grad = true) const;
};

}  // namespace fedcross::nn

#endif  // FEDCROSS_NN_LOSS_H_
