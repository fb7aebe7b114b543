#ifndef FEDCROSS_TESTS_TEST_UTIL_H_
#define FEDCROSS_TESTS_TEST_UTIL_H_

#include <cmath>
#include <memory>
#include <vector>

#include "data/dataset.h"
#include "models/model_zoo.h"
#include "nn/activations.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/sequential.h"
#include "util/rng.h"

namespace fedcross::testing {

// Relative-error comparison that tolerates tiny absolute values.
inline bool CloseRel(double a, double b, double rel_tol, double abs_tol) {
  double diff = std::abs(a - b);
  if (diff <= abs_tol) return true;
  return diff <= rel_tol * std::max(std::abs(a), std::abs(b));
}

// Central-difference gradient check of a model under softmax cross-entropy.
// For every parameter tensor p, perturbs the model along p's own analytic
// gradient direction (restricted to p) and compares the numeric directional
// derivative to ||grad_p||. This exercises every coordinate of every layer's
// backward while staying well above float32 noise (unlike per-coordinate
// checks, which fail spuriously at near-zero-gradient coordinates).
// Returns the worst relative error across parameter tensors.
inline double CheckParamGradients(nn::Sequential& model, const Tensor& input,
                                  const std::vector<int>& labels,
                                  util::Rng& rng, int unused_samples = 0,
                                  float eps = 1e-4f) {
  (void)rng;
  (void)unused_samples;
  nn::CrossEntropyLoss criterion;

  model.ZeroGrad();
  Tensor logits = model.Forward(input, /*train=*/false);
  nn::LossResult loss = criterion.Compute(logits, labels);
  model.Backward(loss.grad_logits);

  double worst_rel = 0.0;
  for (nn::Param* param : model.Params()) {
    // Direction = grad_p / ||grad_p||; analytic derivative = ||grad_p||.
    double norm2 = param->grad.SquaredL2Norm();
    double norm = std::sqrt(norm2);
    // Skip near-dead tensors (e.g. ReLU-blocked biases): their directional
    // signal is below float32 loss resolution, so the check would only
    // measure noise. Live tensors of the same layer types are still checked.
    if (norm < 1e-2) continue;

    Tensor original = param->value;
    param->value.Axpy(eps / static_cast<float>(norm), param->grad);
    float loss_plus =
        criterion.Compute(model.Forward(input, false), labels, false).loss;
    param->value = original;
    param->value.Axpy(-eps / static_cast<float>(norm), param->grad);
    float loss_minus =
        criterion.Compute(model.Forward(input, false), labels, false).loss;
    param->value = original;

    double numeric =
        (static_cast<double>(loss_plus) - loss_minus) / (2.0 * eps);
    double rel = std::abs(numeric - norm) / std::max(norm, 1e-4);
    worst_rel = std::max(worst_rel, rel);
  }
  return worst_rel;
}

// Tiny linearly separable 2-class dataset in `dim` dimensions (class mean
// +-1 on every axis), for convergence smoke tests.
inline std::shared_ptr<data::InMemoryDataset> MakeToyDataset(
    int per_class, int dim, float noise, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> features;
  std::vector<int> labels;
  for (int k = 0; k < 2; ++k) {
    float mean = k == 0 ? -1.0f : 1.0f;
    for (int i = 0; i < per_class; ++i) {
      for (int d = 0; d < dim; ++d) {
        features.push_back(mean + static_cast<float>(rng.Normal(0.0, noise)));
      }
      labels.push_back(k);
    }
  }
  return std::make_shared<data::InMemoryDataset>(
      Tensor::Shape{dim}, std::move(features), std::move(labels), 2);
}

// fcbench's wide-server MLP, kWideMlpDim -> 1024 -> 64 -> 10: 263,882
// parameters, so 3.2 MB of parameter state per replica, above the lockstep
// line (fl::kLockstepStateBytes) where plan jobs train solo.
inline constexpr int kWideMlpDim = 192;

inline models::ModelFactory WideMlpFactory() {
  return []() {
    util::Rng rng(5);
    nn::Sequential model;
    model.Add(std::make_unique<nn::Linear>(kWideMlpDim, 1024, rng));
    model.Add(std::make_unique<nn::Relu>());
    model.Add(std::make_unique<nn::Linear>(1024, 64, rng));
    model.Add(std::make_unique<nn::Relu>());
    model.Add(std::make_unique<nn::Linear>(64, 10, rng));
    return model;
  };
}

}  // namespace fedcross::testing

#endif  // FEDCROSS_TESTS_TEST_UTIL_H_
