#include <gtest/gtest.h>

#include <cmath>

#include "models/model_zoo.h"
#include "nn/loss.h"
#include "util/rng.h"

namespace fedcross::models {
namespace {

TEST(CnnTest, ForwardShape) {
  CnnConfig config;
  config.num_classes = 7;
  nn::Sequential model = MakeCnn(config)();
  util::Rng rng(1);
  Tensor input = Tensor::RandomNormal({2, 3, 16, 16}, rng);
  Tensor logits = model.Forward(input, false);
  EXPECT_EQ(logits.shape(), (Tensor::Shape{2, 7}));
}

TEST(CnnTest, FactoryIsDeterministic) {
  CnnConfig config;
  ModelFactory factory = MakeCnn(config);
  nn::Sequential a = factory();
  nn::Sequential b = factory();
  EXPECT_EQ(a.ParamsToFlat(), b.ParamsToFlat());
}

TEST(CnnTest, DifferentSeedsDifferentWeights) {
  CnnConfig a_config, b_config;
  b_config.seed = 99;
  nn::Sequential a = MakeCnn(a_config)();
  nn::Sequential b = MakeCnn(b_config)();
  EXPECT_NE(a.ParamsToFlat(), b.ParamsToFlat());
}

TEST(ResNetTest, ForwardShape) {
  ResNetConfig config;
  config.num_classes = 5;
  nn::Sequential model = MakeResNet(config)();
  util::Rng rng(2);
  Tensor input = Tensor::RandomNormal({3, 3, 16, 16}, rng);
  Tensor logits = model.Forward(input, false);
  EXPECT_EQ(logits.shape(), (Tensor::Shape{3, 5}));
}

TEST(ResNetTest, DepthScalesWithBlocks) {
  ResNetConfig shallow, deep;
  shallow.blocks_per_stage = 1;
  deep.blocks_per_stage = 3;  // ResNet-20 shape
  nn::Sequential a = MakeResNet(shallow)();
  nn::Sequential b = MakeResNet(deep)();
  EXPECT_GT(b.NumParams(), a.NumParams());
}

TEST(ResNetTest, ResNet20HasThreeStagesOfThree) {
  ResNetConfig config;
  config.blocks_per_stage = 3;
  nn::Sequential model = MakeResNet(config)();
  // stem conv+gn+relu, 9 blocks, pool, linear = 3 + 9 + 2 layers.
  EXPECT_EQ(model.num_layers(), 14);
}

TEST(VggTest, ForwardShape) {
  VggConfig config;
  config.num_classes = 4;
  nn::Sequential model = MakeVgg(config)();
  util::Rng rng(3);
  Tensor input = Tensor::RandomNormal({2, 3, 16, 16}, rng);
  Tensor logits = model.Forward(input, false);
  EXPECT_EQ(logits.shape(), (Tensor::Shape{2, 4}));
}

TEST(VggTest, HasMoreParamsThanCnnAtSameGeometry) {
  // The paper's ordering: VGG is the connection-heavy family.
  VggConfig vgg_config;
  vgg_config.base_width = 16;
  vgg_config.fc_dim = 128;
  CnnConfig cnn_config;
  nn::Sequential vgg = MakeVgg(vgg_config)();
  nn::Sequential cnn = MakeCnn(cnn_config)();
  EXPECT_GT(vgg.NumParams(), cnn.NumParams());
}

TEST(LstmModelTest, ForwardShape) {
  LstmConfig config;
  config.vocab_size = 20;
  config.num_classes = 20;
  nn::Sequential model = MakeLstm(config)();
  Tensor input = Tensor::Zeros({4, 10});
  Tensor logits = model.Forward(input, false);
  EXPECT_EQ(logits.shape(), (Tensor::Shape{4, 20}));
}

TEST(ModelSpecTest, DispatchesAllArchitectures) {
  for (const char* arch : {"cnn", "resnet", "vgg", "lstm"}) {
    ModelSpec spec;
    spec.arch = arch;
    spec.num_classes = 6;
    spec.vocab_size = 12;
    auto factory = MakeModelByName(spec);
    ASSERT_TRUE(factory.ok()) << arch;
    nn::Sequential model = factory.value()();
    EXPECT_GT(model.NumParams(), 0) << arch;
  }
}

TEST(ModelSpecTest, RejectsUnknownArch) {
  ModelSpec spec;
  spec.arch = "transformer";
  auto factory = MakeModelByName(spec);
  EXPECT_FALSE(factory.ok());
  EXPECT_EQ(factory.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(ModelSpecTest, GeometryIsRespected) {
  ModelSpec spec;
  spec.arch = "cnn";
  spec.in_channels = 1;
  spec.height = 14;
  spec.width = 14;
  spec.num_classes = 62;
  nn::Sequential model = MakeModelByName(spec).value()();
  util::Rng rng(4);
  Tensor input = Tensor::RandomNormal({2, 1, 14, 14}, rng);
  Tensor logits = model.Forward(input, false);
  EXPECT_EQ(logits.shape(), (Tensor::Shape{2, 62}));
}

TEST(ModelZooTest, AllModelsTrainOneStepWithoutNan) {
  // Smoke: one forward/backward pass produces finite gradients everywhere.
  util::Rng rng(5);
  std::vector<std::pair<std::string, nn::Sequential>> zoo;
  zoo.emplace_back("cnn", MakeCnn(CnnConfig())());
  zoo.emplace_back("resnet", MakeResNet(ResNetConfig())());
  zoo.emplace_back("vgg", MakeVgg(VggConfig())());

  for (auto& [name, model] : zoo) {
    Tensor input = Tensor::RandomNormal({2, 3, 16, 16}, rng);
    model.ZeroGrad();
    Tensor logits = model.Forward(input, true);
    nn::CrossEntropyLoss criterion;
    nn::LossResult loss = criterion.Compute(logits, {0, 1});
    model.Backward(loss.grad_logits);
    for (float g : model.GradsToFlat()) {
      ASSERT_TRUE(std::isfinite(g)) << name;
    }
  }
}

}  // namespace
}  // namespace fedcross::models
