#include "nn/loss.h"

#include "nn/kernels.h"
#include "util/check.h"

namespace fedcross::nn {

LossResult CrossEntropyLoss::Compute(const Tensor& logits,
                                     const std::vector<int>& labels,
                                     bool compute_grad) const {
  LossResult result;
  Compute(logits, labels, result, compute_grad);
  return result;
}

void CrossEntropyLoss::Compute(const Tensor& logits,
                               const std::vector<int>& labels,
                               LossResult& result, bool compute_grad) const {
  FC_CHECK_EQ(logits.ndim(), 2);
  int batch = logits.dim(0);
  int classes = logits.dim(1);
  FC_CHECK_EQ(batch, static_cast<int>(labels.size()));

  // Softmax in the caller-owned grad buffer: it doubles as probs scratch and
  // (when compute_grad) becomes the gradient in place. The arithmetic lives
  // in nn/kernels.cc, shared with the execution-plan runtime.
  Tensor& probs = result.grad_logits;
  probs = logits;  // capacity-reusing copy
  kernels::CrossEntropyInPlace(probs.data(), batch, classes, labels.data(),
                               compute_grad, &result.loss, &result.correct);
}

}  // namespace fedcross::nn
