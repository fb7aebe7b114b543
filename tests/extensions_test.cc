// Tests for the extension features: model checkpointing, the Adam
// optimizer, differential-privacy update sanitisation, client dropout
// fault-injection, and BatchNorm2d (including its non-trainable running
// statistics riding in the flat parameter vector).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <memory>

#include "core/fedcross.h"
#include "fl/fedavg.h"
#include "nn/activations.h"
#include "nn/checkpoint.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/norm.h"
#include "nn/pooling.h"
#include "optim/adam.h"
#include "privacy/dp.h"
#include "test_util.h"

namespace fedcross {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

models::ModelFactory LinearFactory(int dim, std::uint64_t seed = 1) {
  return [dim, seed]() {
    util::Rng rng(seed);
    nn::Sequential model;
    model.Add(std::make_unique<nn::Linear>(dim, 2, rng));
    return model;
  };
}

data::FederatedDataset MakeToyFederated(int num_clients, int per_client,
                                        std::uint64_t seed) {
  util::Rng rng(seed);
  data::FederatedDataset federated;
  federated.num_classes = 2;
  auto gen = [&](int count, std::vector<float>& features,
                 std::vector<int>& labels) {
    for (int i = 0; i < count; ++i) {
      int k = static_cast<int>(rng.UniformInt(2));
      float mean = k == 0 ? -1.0f : 1.0f;
      for (int d = 0; d < 4; ++d) {
        features.push_back(mean + static_cast<float>(rng.Normal(0.0, 0.5)));
      }
      labels.push_back(k);
    }
  };
  for (int c = 0; c < num_clients; ++c) {
    std::vector<float> features;
    std::vector<int> labels;
    gen(per_client, features, labels);
    federated.client_train.push_back(std::make_shared<data::InMemoryDataset>(
        Tensor::Shape{4}, std::move(features), std::move(labels), 2));
  }
  std::vector<float> features;
  std::vector<int> labels;
  gen(60, features, labels);
  federated.test = std::make_shared<data::InMemoryDataset>(
      Tensor::Shape{4}, std::move(features), std::move(labels), 2);
  return federated;
}

// ------------------------------------------------------------- Checkpoint

TEST(CheckpointTest, SaveLoadRoundTrip) {
  util::Rng rng(1);
  nn::Sequential model;
  model.Add(std::make_unique<nn::Linear>(4, 3, rng));
  model.Add(std::make_unique<nn::Relu>());
  model.Add(std::make_unique<nn::Linear>(3, 2, rng));
  std::vector<float> original = model.ParamsToFlat();

  std::string path = TempPath("roundtrip.fcpt");
  ASSERT_TRUE(nn::SaveModel(model, path).ok());

  // Perturb, reload, verify restoration.
  std::vector<float> perturbed = original;
  for (float& value : perturbed) value += 1.0f;
  model.ParamsFromFlat(perturbed);
  ASSERT_TRUE(nn::LoadModel(model, path).ok());
  EXPECT_EQ(model.ParamsToFlat(), original);
  std::remove(path.c_str());
}

TEST(CheckpointTest, LoadRejectsWrongArchitecture) {
  util::Rng rng(2);
  nn::Sequential small;
  small.Add(std::make_unique<nn::Linear>(2, 2, rng));
  std::string path = TempPath("arch.fcpt");
  ASSERT_TRUE(nn::SaveModel(small, path).ok());

  nn::Sequential big;
  big.Add(std::make_unique<nn::Linear>(5, 2, rng));
  util::Status status = nn::LoadModel(big, path);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(CheckpointTest, LoadRejectsGarbageFile) {
  std::string path = TempPath("garbage.fcpt");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("not a checkpoint at all", f);
    std::fclose(f);
  }
  util::Rng rng(3);
  nn::Sequential model;
  model.Add(std::make_unique<nn::Linear>(2, 2, rng));
  util::Status status = nn::LoadModel(model, path);
  EXPECT_FALSE(status.ok());
  std::remove(path.c_str());
}

TEST(CheckpointTest, LoadMissingFileIsNotFound) {
  util::Rng rng(4);
  nn::Sequential model;
  model.Add(std::make_unique<nn::Linear>(2, 2, rng));
  util::Status status = nn::LoadModel(model, TempPath("missing.fcpt"));
  EXPECT_EQ(status.code(), util::StatusCode::kNotFound);
}

TEST(CheckpointTest, CorruptFileLeavesModelUntouched) {
  util::Rng rng(5);
  nn::Sequential model;
  model.Add(std::make_unique<nn::Linear>(3, 3, rng));
  std::vector<float> original = model.ParamsToFlat();
  std::string path = TempPath("truncated.fcpt");
  ASSERT_TRUE(nn::SaveModel(model, path).ok());
  // Truncate the file.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(truncate(path.c_str(), size - 5), 0);
  }
  model.ParamsFromFlat(original);
  EXPECT_FALSE(nn::LoadModel(model, path).ok());
  EXPECT_EQ(model.ParamsToFlat(), original);  // staged load: no partial write
  std::remove(path.c_str());
}

TEST(CheckpointTest, FlatParamsRoundTrip) {
  std::vector<float> params = {1.5f, -2.0f, 3.25f};
  std::string path = TempPath("flat.fcpt");
  ASSERT_TRUE(nn::SaveFlatParams(params, path).ok());
  auto loaded = nn::LoadFlatParams(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value(), params);
  std::remove(path.c_str());
}

// ------------------------------------------------------------------ Adam

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimise (w - 3)^2 for a single scalar parameter.
  nn::Param w(Tensor::Full({1}, 0.0f));
  optim::AdamOptions options;
  options.lr = 0.1f;
  optim::Adam adam({&w}, options);
  for (int step = 0; step < 300; ++step) {
    w.grad = Tensor::Full({1}, 2.0f * (w.value.at(0) - 3.0f));
    adam.Step();
  }
  EXPECT_NEAR(w.value.at(0), 3.0f, 0.05f);
  EXPECT_EQ(adam.step_count(), 300);
}

TEST(AdamTest, FirstStepIsLrSized) {
  // With bias correction, the first Adam step magnitude is ~lr.
  nn::Param w(Tensor::Full({1}, 0.0f));
  optim::AdamOptions options;
  options.lr = 0.01f;
  optim::Adam adam({&w}, options);
  w.grad = Tensor::Full({1}, 123.0f);
  adam.Step();
  EXPECT_NEAR(w.value.at(0), -0.01f, 1e-4f);
}

TEST(AdamTest, SkipsNonTrainableParams) {
  nn::Param stat(Tensor::Full({1}, 7.0f), /*is_trainable=*/false);
  optim::Adam adam({&stat}, optim::AdamOptions());
  stat.grad = Tensor::Full({1}, 100.0f);
  adam.Step();
  EXPECT_EQ(stat.value.at(0), 7.0f);
}

TEST(AdamTest, TrainsToyClassifier) {
  util::Rng rng(6);
  nn::Sequential model;
  model.Add(std::make_unique<nn::Linear>(4, 2, rng));
  auto dataset = testing::MakeToyDataset(40, 4, 0.3f, 7);
  optim::AdamOptions options;
  options.lr = 0.05f;
  optim::Adam adam(model.Params(), options);
  nn::CrossEntropyLoss criterion;

  Tensor features;
  std::vector<int> labels;
  std::vector<int> all(dataset->size());
  for (int i = 0; i < dataset->size(); ++i) all[i] = i;
  dataset->GetBatch(all, features, labels);
  float initial = criterion.Compute(model.Forward(features, false), labels,
                                    false).loss;
  for (int step = 0; step < 60; ++step) {
    model.ZeroGrad();
    nn::LossResult loss =
        criterion.Compute(model.Forward(features, true), labels);
    model.Backward(loss.grad_logits);
    adam.Step();
  }
  float final_loss = criterion.Compute(model.Forward(features, false), labels,
                                       false).loss;
  EXPECT_LT(final_loss, initial * 0.3f);
}

// --------------------------------------------------------------- Privacy

TEST(PrivacyTest, NoOpWhenDisabled) {
  fl::FlatParams reference = {0.0f, 0.0f};
  fl::FlatParams uploaded = {10.0f, 0.0f};
  fl::FlatParams sanitised = uploaded;
  util::Rng rng(8);
  privacy::DpOptions options;  // clip_norm = 0: disabled
  EXPECT_FALSE(
      privacy::SanitizeUpdateInPlace(reference, sanitised, options, rng));
  EXPECT_EQ(sanitised, uploaded);
}

TEST(PrivacyTest, ClipsLargeUpdates) {
  fl::FlatParams reference = {0.0f, 0.0f};
  fl::FlatParams sanitised = {10.0f, 0.0f};
  util::Rng rng(9);
  privacy::DpOptions options;
  options.clip_norm = 1.0f;
  options.noise_multiplier = 0.0f;
  EXPECT_TRUE(
      privacy::SanitizeUpdateInPlace(reference, sanitised, options, rng));
  EXPECT_NEAR(privacy::UpdateNorm(reference, sanitised), 1.0, 1e-5);
  EXPECT_NEAR(sanitised[0], 1.0f, 1e-5f);
}

TEST(PrivacyTest, SmallUpdatesPassUnclipped) {
  fl::FlatParams reference = {1.0f, 1.0f};
  fl::FlatParams sanitised = {1.1f, 1.0f};
  util::Rng rng(10);
  privacy::DpOptions options;
  options.clip_norm = 5.0f;
  EXPECT_FALSE(
      privacy::SanitizeUpdateInPlace(reference, sanitised, options, rng));
  EXPECT_NEAR(sanitised[0], 1.1f, 1e-6f);
}

TEST(PrivacyTest, NoiseHasExpectedScale) {
  int dim = 5000;
  fl::FlatParams reference(dim, 0.0f);
  fl::FlatParams sanitised(dim, 0.0f);  // zero update: output is pure noise
  util::Rng rng(11);
  privacy::DpOptions options;
  options.clip_norm = 2.0f;
  options.noise_multiplier = 0.5f;  // sigma = 1.0
  privacy::SanitizeUpdateInPlace(reference, sanitised, options, rng);
  double var = 0.0;
  for (float v : sanitised) var += static_cast<double>(v) * v;
  var /= dim;
  EXPECT_NEAR(var, 1.0, 0.1);
}

TEST(PrivacyTest, EpsilonDecreasesWithNoise) {
  double strict = privacy::GaussianMechanismEpsilon(2.0, 1e-5);
  double loose = privacy::GaussianMechanismEpsilon(0.5, 1e-5);
  EXPECT_LT(strict, loose);
  EXPECT_GT(strict, 0.0);
}

TEST(PrivacyTest, FedAvgStillLearnsUnderMildDp) {
  fl::AlgorithmConfig config;
  config.clients_per_round = 3;
  config.train.local_epochs = 3;
  config.train.batch_size = 10;
  config.train.lr = 0.05f;
  config.dp.clip_norm = 5.0f;
  config.dp.noise_multiplier = 0.01f;
  fl::FedAvg fedavg(config, MakeToyFederated(6, 40, 12), LinearFactory(4));
  EXPECT_GT(fedavg.Run(8).BestAccuracy(), 0.8f);
}

// ---------------------------------------------------------------- Dropout

TEST(ClientDropoutTest, FullDropoutFreezesGlobalModel) {
  fl::AlgorithmConfig config;
  config.clients_per_round = 3;
  config.faults.profile.dropout_prob = 1.0;
  fl::FedAvg fedavg(config, MakeToyFederated(6, 20, 13), LinearFactory(4));
  fl::FlatParams before = fedavg.GlobalParams();
  fedavg.Run(3);
  EXPECT_EQ(fedavg.GlobalParams(), before);
}

TEST(ClientDropoutTest, PartialDropoutStillLearns) {
  fl::AlgorithmConfig config;
  config.clients_per_round = 4;
  config.train.local_epochs = 3;
  config.train.batch_size = 10;
  config.train.lr = 0.05f;
  config.faults.profile.dropout_prob = 0.3;
  fl::FedAvg fedavg(config, MakeToyFederated(8, 40, 14), LinearFactory(4));
  EXPECT_GT(fedavg.Run(10).BestAccuracy(), 0.8f);
}

TEST(ClientDropoutTest, FedCrossSurvivesDropout) {
  fl::AlgorithmConfig config;
  config.clients_per_round = 3;
  config.train.local_epochs = 3;
  config.train.batch_size = 10;
  config.train.lr = 0.05f;
  config.faults.profile.dropout_prob = 0.3;
  core::FedCrossOptions options;
  options.alpha = 0.9;
  core::FedCross fedcross(config, MakeToyFederated(8, 40, 15),
                          LinearFactory(4), options);
  EXPECT_GT(fedcross.Run(10).BestAccuracy(), 0.8f);
}

TEST(ClientDropoutTest, DroppedUploadsDoNotCountAsTraffic) {
  fl::AlgorithmConfig config;
  config.clients_per_round = 4;
  config.faults.profile.dropout_prob = 1.0;
  fl::FedAvg fedavg(config, MakeToyFederated(8, 20, 16), LinearFactory(4));
  fedavg.Run(1);
  const fl::RoundRecord& record = fedavg.history().records().back();
  EXPECT_GT(record.bytes_down, 0.0);  // models were dispatched
  EXPECT_EQ(record.bytes_up, 0.0);    // nothing came back
}

// -------------------------------------------------------------- BatchNorm

TEST(BatchNormTest, NormalisesPerChannelInTraining) {
  nn::BatchNorm2d norm(3);
  util::Rng rng(17);
  Tensor input = Tensor::RandomNormal({4, 3, 5, 5}, rng, 2.0f, 3.0f);
  Tensor output = norm.Forward(input, /*train=*/true);
  int area = 25;
  for (int c = 0; c < 3; ++c) {
    double mean = 0.0, var = 0.0;
    for (int b = 0; b < 4; ++b) {
      const float* plane = output.data() + (b * 3 + c) * area;
      for (int i = 0; i < area; ++i) mean += plane[i];
    }
    mean /= 4 * area;
    for (int b = 0; b < 4; ++b) {
      const float* plane = output.data() + (b * 3 + c) * area;
      for (int i = 0; i < area; ++i) var += (plane[i] - mean) * (plane[i] - mean);
    }
    var /= 4 * area;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNormTest, RunningStatsConvergeToDataStats) {
  nn::BatchNorm2d norm(1, /*momentum=*/0.5f);
  util::Rng rng(18);
  for (int step = 0; step < 30; ++step) {
    Tensor input = Tensor::RandomNormal({8, 1, 4, 4}, rng, 5.0f, 2.0f);
    norm.Forward(input, /*train=*/true);
  }
  std::vector<nn::Param*> params;
  norm.CollectParams(params);
  ASSERT_EQ(params.size(), 4u);
  EXPECT_NEAR(params[2]->value.at(0), 5.0f, 0.5f);  // running mean
  EXPECT_NEAR(params[3]->value.at(0), 4.0f, 1.0f);  // running var
}

TEST(BatchNormTest, EvalUsesRunningStats) {
  nn::BatchNorm2d norm(1, /*momentum=*/1.0f);
  util::Rng rng(19);
  Tensor calibration = Tensor::RandomNormal({16, 1, 4, 4}, rng, 3.0f, 1.0f);
  norm.Forward(calibration, /*train=*/true);
  // In eval, an input equal to the running mean maps near beta (= 0).
  Tensor probe = Tensor::Full({1, 1, 4, 4}, 3.0f);
  Tensor output = norm.Forward(probe, /*train=*/false);
  EXPECT_NEAR(output.Mean(), 0.0f, 0.3f);
}

TEST(BatchNormTest, RunningStatsAreNonTrainableButInFlatVector) {
  util::Rng rng(20);
  nn::Sequential model;
  model.Add(std::make_unique<nn::Conv2d>(1, 2, 3, 1, 1, rng));
  model.Add(std::make_unique<nn::BatchNorm2d>(2));
  int trainable = 0, frozen = 0;
  for (nn::Param* param : model.Params()) {
    (param->trainable ? trainable : frozen)++;
  }
  EXPECT_EQ(frozen, 2);  // running mean + var
  // Flat vector includes the stats: conv W,b + gamma,beta + mean,var.
  EXPECT_EQ(model.NumParams(),
            2 * 9 + 2 /*conv*/ + 2 + 2 /*gn*/ + 2 + 2 /*stats*/);
}

TEST(BatchNormTest, GradCheckThroughBatchNorm) {
  util::Rng rng(21);
  nn::Sequential model;
  model.Add(std::make_unique<nn::Conv2d>(2, 4, 3, 1, 1, rng));
  model.Add(std::make_unique<nn::BatchNorm2d>(4));
  model.Add(std::make_unique<nn::Relu>());
  model.Add(std::make_unique<nn::GlobalAvgPool>());
  model.Add(std::make_unique<nn::Linear>(4, 2, rng));

  // BatchNorm caches depend on train mode; run the directional check with
  // train=true forward passes by priming the cache first.
  Tensor input = Tensor::RandomNormal({4, 2, 6, 6}, rng);
  std::vector<int> labels = {0, 1, 0, 1};
  nn::CrossEntropyLoss criterion;
  model.ZeroGrad();
  Tensor logits = model.Forward(input, true);
  nn::LossResult loss = criterion.Compute(logits, labels);
  model.Backward(loss.grad_logits);

  double worst = 0.0;
  for (nn::Param* param : model.Params()) {
    if (!param->trainable) continue;
    double norm = std::sqrt(param->grad.SquaredL2Norm());
    if (norm < 1e-2) continue;
    float eps = 1e-3f;
    Tensor original = param->value;
    param->value.Axpy(eps / static_cast<float>(norm), param->grad);
    float plus = criterion.Compute(model.Forward(input, true), labels,
                                   false).loss;
    param->value = original;
    param->value.Axpy(-eps / static_cast<float>(norm), param->grad);
    float minus = criterion.Compute(model.Forward(input, true), labels,
                                    false).loss;
    param->value = original;
    double numeric = (static_cast<double>(plus) - minus) / (2.0 * eps);
    worst = std::max(worst, std::abs(numeric - norm) / std::max(norm, 1e-4));
  }
  EXPECT_LT(worst, 0.1);
}

}  // namespace
}  // namespace fedcross
