// Finite-difference gradient verification for every layer with
// parameters and for the full model-zoo architectures. These tests are
// what make the hand-written backprop in src/nn trustworthy.
#include <gtest/gtest.h>

#include <memory>

#include "models/model_zoo.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/embedding.h"
#include "nn/flatten.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/lstm.h"
#include "nn/norm.h"
#include "nn/pooling.h"
#include "nn/residual.h"
#include "nn/sequential.h"
#include "test_util.h"

namespace fedcross {
namespace {

using testing::CheckParamGradients;

constexpr double kTol = 0.08;  // float32 central differences are noisy

std::vector<int> CyclicLabels(int batch, int classes) {
  std::vector<int> labels(batch);
  for (int b = 0; b < batch; ++b) labels[b] = b % classes;
  return labels;
}

TEST(GradCheckTest, LinearLayer) {
  util::Rng rng(1);
  nn::Sequential model;
  model.Add(std::make_unique<nn::Linear>(6, 4, rng));
  Tensor input = Tensor::RandomNormal({5, 6}, rng);
  double err = CheckParamGradients(model, input, CyclicLabels(5, 4), rng, 8);
  EXPECT_LT(err, kTol);
}

TEST(GradCheckTest, TwoLinearRelu) {
  util::Rng rng(2);
  nn::Sequential model;
  model.Add(std::make_unique<nn::Linear>(6, 8, rng));
  model.Add(std::make_unique<nn::Relu>());
  model.Add(std::make_unique<nn::Linear>(8, 3, rng));
  Tensor input = Tensor::RandomNormal({4, 6}, rng);
  double err = CheckParamGradients(model, input, CyclicLabels(4, 3), rng, 8);
  EXPECT_LT(err, kTol);
}

struct ConvCase {
  int in_channels;
  int out_channels;
  int kernel;
  int stride;
  int pad;
};

int ops_out(int in, const ConvCase& c) {
  return (in + 2 * c.pad - c.kernel) / c.stride + 1;
}

class ConvGradCheck : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGradCheck, MatchesFiniteDifferences) {
  ConvCase config = GetParam();
  util::Rng rng(4);
  nn::Sequential model;
  model.Add(std::make_unique<nn::Conv2d>(config.in_channels,
                                         config.out_channels, config.kernel,
                                         config.stride, config.pad, rng));
  model.Add(std::make_unique<nn::Flatten>());
  // Classifier head to produce logits.
  int out_h = ops_out(8, config);
  int out_w = out_h;
  model.Add(std::make_unique<nn::Linear>(
      config.out_channels * out_h * out_w, 3, rng));
  Tensor input = Tensor::RandomNormal({2, config.in_channels, 8, 8}, rng);
  double err = CheckParamGradients(model, input, CyclicLabels(2, 3), rng, 6);
  EXPECT_LT(err, kTol);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvGradCheck,
    ::testing::Values(ConvCase{1, 2, 3, 1, 1}, ConvCase{2, 3, 3, 1, 1},
                      ConvCase{2, 4, 3, 2, 1}, ConvCase{1, 2, 5, 1, 2},
                      ConvCase{3, 2, 1, 1, 0}));

TEST(GradCheckTest, MaxPoolPath) {
  util::Rng rng(5);
  nn::Sequential model;
  model.Add(std::make_unique<nn::Conv2d>(1, 2, 3, 1, 1, rng));
  model.Add(std::make_unique<nn::Relu>());
  model.Add(std::make_unique<nn::MaxPool2d>(2, 2));
  model.Add(std::make_unique<nn::Flatten>());
  model.Add(std::make_unique<nn::Linear>(2 * 4 * 4, 2, rng));
  Tensor input = Tensor::RandomNormal({2, 1, 8, 8}, rng);
  double err = CheckParamGradients(model, input, CyclicLabels(2, 2), rng, 6);
  EXPECT_LT(err, kTol);
}

TEST(GradCheckTest, GlobalAvgPoolPath) {
  util::Rng rng(6);
  nn::Sequential model;
  model.Add(std::make_unique<nn::Conv2d>(1, 4, 3, 1, 1, rng));
  model.Add(std::make_unique<nn::GlobalAvgPool>());
  model.Add(std::make_unique<nn::Linear>(4, 3, rng));
  Tensor input = Tensor::RandomNormal({3, 1, 6, 6}, rng);
  double err = CheckParamGradients(model, input, CyclicLabels(3, 3), rng, 6);
  EXPECT_LT(err, kTol);
}

TEST(GradCheckTest, GroupNormPath) {
  util::Rng rng(7);
  nn::Sequential model;
  model.Add(std::make_unique<nn::Conv2d>(2, 4, 3, 1, 1, rng));
  model.Add(std::make_unique<nn::GroupNorm>(4, 2));
  model.Add(std::make_unique<nn::Relu>());
  model.Add(std::make_unique<nn::GlobalAvgPool>());
  model.Add(std::make_unique<nn::Linear>(4, 2, rng));
  Tensor input = Tensor::RandomNormal({2, 2, 6, 6}, rng);
  double err = CheckParamGradients(model, input, CyclicLabels(2, 2), rng, 6);
  EXPECT_LT(err, kTol);
}

TEST(GradCheckTest, ResidualBlockIdentitySkip) {
  util::Rng rng(8);
  nn::Sequential model;
  model.Add(std::make_unique<nn::ResidualBlock>(4, 4, /*stride=*/1,
                                                /*gn_groups=*/2, rng));
  model.Add(std::make_unique<nn::GlobalAvgPool>());
  model.Add(std::make_unique<nn::Linear>(4, 2, rng));
  Tensor input = Tensor::RandomNormal({2, 4, 6, 6}, rng);
  double err = CheckParamGradients(model, input, CyclicLabels(2, 2), rng, 4);
  EXPECT_LT(err, kTol);
}

TEST(GradCheckTest, ResidualBlockProjectionSkip) {
  util::Rng rng(9);
  nn::Sequential model;
  model.Add(std::make_unique<nn::ResidualBlock>(2, 4, /*stride=*/2,
                                                /*gn_groups=*/2, rng));
  model.Add(std::make_unique<nn::GlobalAvgPool>());
  model.Add(std::make_unique<nn::Linear>(4, 2, rng));
  Tensor input = Tensor::RandomNormal({2, 2, 8, 8}, rng);
  double err = CheckParamGradients(model, input, CyclicLabels(2, 2), rng, 4);
  EXPECT_LT(err, kTol);
}

TEST(GradCheckTest, EmbeddingLstmClassifier) {
  util::Rng rng(10);
  nn::Sequential model;
  model.Add(std::make_unique<nn::Embedding>(7, 5, rng));
  model.Add(std::make_unique<nn::Lstm>(5, 6, rng));
  model.Add(std::make_unique<nn::Linear>(6, 4, rng));
  Tensor input = Tensor::FromVector({2, 5}, {0, 1, 2, 3, 4, 6, 5, 4, 3, 2});
  double err = CheckParamGradients(model, input, CyclicLabels(2, 4), rng, 6);
  EXPECT_LT(err, kTol);
}

TEST(GradCheckTest, LstmOnContinuousInput) {
  util::Rng rng(11);
  nn::Sequential model;
  model.Add(std::make_unique<nn::Lstm>(3, 4, rng));
  model.Add(std::make_unique<nn::Linear>(4, 2, rng));
  Tensor input = Tensor::RandomNormal({3, 6, 3}, rng);
  double err = CheckParamGradients(model, input, CyclicLabels(3, 2), rng, 8);
  EXPECT_LT(err, kTol);
}

TEST(GradCheckTest, InputGradientOfLinearModel) {
  // Verify Sequential::Backward's returned input gradient too.
  util::Rng rng(12);
  nn::Sequential model;
  model.Add(std::make_unique<nn::Linear>(4, 3, rng));
  Tensor input = Tensor::RandomNormal({2, 4}, rng);
  std::vector<int> labels = CyclicLabels(2, 3);
  nn::CrossEntropyLoss criterion;

  model.ZeroGrad();
  Tensor logits = model.Forward(input);
  nn::LossResult loss = criterion.Compute(logits, labels);
  Tensor grad_input = model.Backward(loss.grad_logits);
  ASSERT_TRUE(grad_input.SameShape(input));

  const float eps = 1e-2f;
  for (int trial = 0; trial < 6; ++trial) {
    std::int64_t index = rng.UniformInt(input.numel());
    Tensor plus = input;
    plus.at(index) += eps;
    Tensor minus = input;
    minus.at(index) -= eps;
    float loss_plus =
        criterion.Compute(model.Forward(plus), labels, false).loss;
    float loss_minus =
        criterion.Compute(model.Forward(minus), labels, false).loss;
    double numeric = (loss_plus - loss_minus) / (2.0 * eps);
    EXPECT_NEAR(grad_input.at(index), numeric, 0.02)
        << "input coordinate " << index;
  }
}

// Full model-zoo architectures (small geometries).
TEST(GradCheckTest, ZooCnn) {
  models::CnnConfig config;
  config.height = config.width = 8;
  config.conv1_channels = 4;
  config.conv2_channels = 6;
  config.fc_dim = 10;
  config.num_classes = 4;
  nn::Sequential model = models::MakeCnn(config)();
  util::Rng rng(13);
  Tensor input = Tensor::RandomNormal({2, 3, 8, 8}, rng);
  double err = CheckParamGradients(model, input, CyclicLabels(2, 4), rng, 3);
  EXPECT_LT(err, kTol);
}

TEST(GradCheckTest, ZooResNet) {
  models::ResNetConfig config;
  config.height = config.width = 8;
  config.base_width = 4;
  config.gn_groups = 2;
  config.num_classes = 3;
  nn::Sequential model = models::MakeResNet(config)();
  util::Rng rng(14);
  Tensor input = Tensor::RandomNormal({2, 3, 8, 8}, rng);
  double err = CheckParamGradients(model, input, CyclicLabels(2, 3), rng, 2);
  EXPECT_LT(err, kTol);
}

TEST(GradCheckTest, ZooVgg) {
  models::VggConfig config;
  config.height = config.width = 8;
  config.base_width = 4;
  config.fc_dim = 8;
  config.num_classes = 3;
  nn::Sequential model = models::MakeVgg(config)();
  util::Rng rng(15);
  Tensor input = Tensor::RandomNormal({2, 3, 8, 8}, rng);
  double err = CheckParamGradients(model, input, CyclicLabels(2, 3), rng, 2);
  EXPECT_LT(err, kTol);
}

TEST(GradCheckTest, ZooLstm) {
  models::LstmConfig config;
  config.vocab_size = 9;
  config.embed_dim = 5;
  config.hidden_dim = 7;
  config.num_classes = 9;
  nn::Sequential model = models::MakeLstm(config)();
  util::Rng rng(16);
  std::vector<float> ids(2 * 6);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<float>(i % 9);
  }
  Tensor input = Tensor::FromVector({2, 6}, std::move(ids));
  double err = CheckParamGradients(model, input, CyclicLabels(2, 9), rng, 4);
  EXPECT_LT(err, kTol);
}

}  // namespace
}  // namespace fedcross
