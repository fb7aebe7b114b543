#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/sequential.h"
#include "optim/sgd.h"
#include "test_util.h"
#include "util/rng.h"

namespace fedcross::optim {
namespace {

// A single scalar parameter with a hand-set gradient.
struct ScalarParam {
  nn::Param param;
  ScalarParam() : param(Tensor::Full({1}, 1.0f)) {}
  float value() const { return param.value.at(0); }
  void set_grad(float g) { param.grad = Tensor::Full({1}, g); }
};

TEST(SgdTest, PlainStep) {
  ScalarParam scalar;
  SgdOptions options;
  options.lr = 0.1f;
  Sgd sgd({&scalar.param}, options);
  scalar.set_grad(2.0f);
  sgd.Step();
  EXPECT_FLOAT_EQ(scalar.value(), 1.0f - 0.1f * 2.0f);
}

TEST(SgdTest, MomentumAccumulates) {
  ScalarParam scalar;
  SgdOptions options;
  options.lr = 0.1f;
  options.momentum = 0.5f;
  Sgd sgd({&scalar.param}, options);
  scalar.set_grad(1.0f);
  sgd.Step();  // v=1, w = 1 - 0.1 = 0.9
  EXPECT_FLOAT_EQ(scalar.value(), 0.9f);
  scalar.set_grad(1.0f);
  sgd.Step();  // v = 0.5 + 1 = 1.5, w = 0.9 - 0.15 = 0.75
  EXPECT_FLOAT_EQ(scalar.value(), 0.75f);
}

TEST(SgdTest, WeightDecayShrinksParams) {
  ScalarParam scalar;
  SgdOptions options;
  options.lr = 0.1f;
  options.weight_decay = 0.5f;
  Sgd sgd({&scalar.param}, options);
  scalar.set_grad(0.0f);
  sgd.Step();  // w = 1 - 0.1*0.5*1 = 0.95
  EXPECT_FLOAT_EQ(scalar.value(), 0.95f);
}

TEST(SgdTest, GradClippingBoundsStep) {
  ScalarParam scalar;
  SgdOptions options;
  options.lr = 1.0f;
  options.grad_clip_norm = 1.0f;
  Sgd sgd({&scalar.param}, options);
  scalar.set_grad(100.0f);
  sgd.Step();  // clipped to norm 1 -> w = 1 - 1 = 0
  EXPECT_FLOAT_EQ(scalar.value(), 0.0f);
}

TEST(SgdTest, ClippingIsGlobalAcrossParams) {
  ScalarParam a, b;
  SgdOptions options;
  options.lr = 1.0f;
  options.grad_clip_norm = 5.0f;
  Sgd sgd({&a.param, &b.param}, options);
  a.set_grad(3.0f);
  b.set_grad(4.0f);  // global norm 5: no clipping
  sgd.Step();
  EXPECT_FLOAT_EQ(a.value(), 1.0f - 3.0f);
  EXPECT_FLOAT_EQ(b.value(), 1.0f - 4.0f);
}

TEST(SgdTest, SetLrTakesEffect) {
  ScalarParam scalar;
  SgdOptions options;
  options.lr = 0.1f;
  Sgd sgd({&scalar.param}, options);
  sgd.set_lr(0.5f);
  EXPECT_FLOAT_EQ(sgd.lr(), 0.5f);
  scalar.set_grad(1.0f);
  sgd.Step();
  EXPECT_FLOAT_EQ(scalar.value(), 0.5f);
}

TEST(SgdTest, TrainingReducesLossOnToyProblem) {
  util::Rng rng(1);
  nn::Sequential model;
  model.Add(std::make_unique<nn::Linear>(4, 2, rng));
  auto dataset = testing::MakeToyDataset(40, 4, 0.3f, 7);

  SgdOptions options;
  options.lr = 0.1f;
  options.momentum = 0.5f;
  Sgd sgd(model.Params(), options);
  nn::CrossEntropyLoss criterion;

  Tensor features;
  std::vector<int> labels;
  std::vector<int> all(dataset->size());
  for (int i = 0; i < dataset->size(); ++i) all[i] = i;
  dataset->GetBatch(all, features, labels);

  float initial_loss =
      criterion.Compute(model.Forward(features), labels, false).loss;
  for (int step = 0; step < 50; ++step) {
    model.ZeroGrad();
    nn::LossResult loss =
        criterion.Compute(model.Forward(features), labels);
    model.Backward(loss.grad_logits);
    sgd.Step();
  }
  float final_loss =
      criterion.Compute(model.Forward(features), labels, false).loss;
  EXPECT_LT(final_loss, initial_loss * 0.5f);
}

}  // namespace
}  // namespace fedcross::optim
