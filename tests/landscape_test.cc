#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/landscape.h"
#include "fl/evaluator.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "test_util.h"

namespace fedcross::core {
namespace {

models::ModelFactory LinearFactory(int dim, std::uint64_t seed = 1) {
  return [dim, seed]() {
    util::Rng rng(seed);
    nn::Sequential model;
    model.Add(std::make_unique<nn::Linear>(dim, 2, rng));
    return model;
  };
}

TEST(LandscapeTest, GridShapeAndCenter) {
  auto dataset = testing::MakeToyDataset(30, 4, 0.4f, 1);
  models::ModelFactory factory = LinearFactory(4);
  fl::FlatParams params = factory().ParamsToFlat();

  LandscapeOptions options;
  options.grid = 7;
  options.radius = 0.5;
  LandscapeResult result = ProbeLossLandscape(factory, params, *dataset,
                                              options);
  ASSERT_EQ(result.loss.size(), 7u);
  ASSERT_EQ(result.loss[0].size(), 7u);
  EXPECT_DOUBLE_EQ(result.loss[3][3], result.center_loss);
  for (const auto& row : result.loss) {
    for (double value : row) EXPECT_TRUE(std::isfinite(value));
  }
}

TEST(LandscapeTest, CenterLossMatchesDirectEvaluation) {
  auto dataset = testing::MakeToyDataset(30, 4, 0.4f, 2);
  models::ModelFactory factory = LinearFactory(4);
  fl::FlatParams params = factory().ParamsToFlat();

  LandscapeOptions options;
  LandscapeResult result = ProbeLossLandscape(factory, params, *dataset,
                                              options);
  fl::EvalResult direct = fl::EvaluateParams(factory, params, *dataset, 100);
  EXPECT_NEAR(result.center_loss, direct.loss, 1e-5);
}

TEST(LandscapeTest, TrainedMinimumHasPositiveSharpness) {
  // Train a linear model to (near) optimum; the landscape around it should
  // rise towards the border.
  auto dataset = testing::MakeToyDataset(40, 4, 0.3f, 3);
  models::ModelFactory factory = LinearFactory(4);
  nn::Sequential model = factory();

  // Quick full-batch training.
  nn::CrossEntropyLoss criterion;
  Tensor features;
  std::vector<int> labels;
  std::vector<int> all(dataset->size());
  for (int i = 0; i < dataset->size(); ++i) all[i] = i;
  dataset->GetBatch(all, features, labels);
  for (int step = 0; step < 200; ++step) {
    model.ZeroGrad();
    nn::LossResult loss =
        criterion.Compute(model.Forward(features), labels);
    model.Backward(loss.grad_logits);
    for (nn::Param* param : model.Params()) {
      param->value.Axpy(-0.2f, param->grad);
    }
  }
  fl::FlatParams params = model.ParamsToFlat();

  LandscapeOptions options;
  options.radius = 1.0;
  LandscapeResult result = ProbeLossLandscape(factory, params, *dataset,
                                              options);
  EXPECT_GT(result.border_sharpness, 0.0);
  EXPECT_GT(result.max_increase, 0.0);
}

TEST(LandscapeTest, MaxExamplesLimitsCost) {
  auto dataset = testing::MakeToyDataset(100, 4, 0.4f, 4);
  models::ModelFactory factory = LinearFactory(4);
  fl::FlatParams params = factory().ParamsToFlat();

  LandscapeOptions options;
  options.grid = 3;
  options.max_examples = 10;
  LandscapeResult result = ProbeLossLandscape(factory, params, *dataset,
                                              options);
  EXPECT_TRUE(std::isfinite(result.center_loss));
}

TEST(LandscapeTest, DeterministicForSeed) {
  auto dataset = testing::MakeToyDataset(20, 4, 0.4f, 5);
  models::ModelFactory factory = LinearFactory(4);
  fl::FlatParams params = factory().ParamsToFlat();
  LandscapeOptions options;
  options.grid = 3;
  LandscapeResult a = ProbeLossLandscape(factory, params, *dataset, options);
  LandscapeResult b = ProbeLossLandscape(factory, params, *dataset, options);
  EXPECT_EQ(a.loss, b.loss);
}

TEST(DirectionalSharpnessTest, ScaledLossIsSharper) {
  // f(w) on a trained model versus the same landscape with parameters
  // doubled: perturbations of fixed *relative* radius probe the same
  // relative neighbourhood, but an untrained (flat, high-loss) model
  // differs from a trained minimum. We check the weaker, robust property:
  // sharpness at a trained minimum is positive and larger radii hurt more.
  auto dataset = testing::MakeToyDataset(40, 4, 0.3f, 6);
  models::ModelFactory factory = LinearFactory(4);
  nn::Sequential model = factory();
  nn::CrossEntropyLoss criterion;
  Tensor features;
  std::vector<int> labels;
  std::vector<int> all(dataset->size());
  for (int i = 0; i < dataset->size(); ++i) all[i] = i;
  dataset->GetBatch(all, features, labels);
  for (int step = 0; step < 200; ++step) {
    model.ZeroGrad();
    nn::LossResult loss =
        criterion.Compute(model.Forward(features), labels);
    model.Backward(loss.grad_logits);
    for (nn::Param* param : model.Params()) {
      param->value.Axpy(-0.2f, param->grad);
    }
  }
  fl::FlatParams params = model.ParamsToFlat();

  double small = DirectionalSharpness(factory, params, *dataset, 0.3, 6, 7);
  double large = DirectionalSharpness(factory, params, *dataset, 1.0, 6, 7);
  EXPECT_GT(small, 0.0);
  EXPECT_GT(large, small);
}

}  // namespace
}  // namespace fedcross::core
