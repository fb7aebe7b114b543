// Tests for the extension features: differential-privacy update
// sanitisation and client dropout fault-injection.
#include <gtest/gtest.h>

#include <memory>

#include "core/fedcross.h"
#include "fl/fedavg.h"
#include "nn/linear.h"
#include "privacy/dp.h"
#include "test_util.h"

namespace fedcross {
namespace {

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

}  // namespace
}  // namespace fedcross
