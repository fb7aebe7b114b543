// Cross-cutting property tests: parameterized sweeps over architectures,
// K, alpha, and partition settings that pin down the invariants DESIGN.md
// §4 calls out.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <string_view>

#include "core/fedcross.h"
#include "data/partition.h"
#include "fl/fedavg.h"
#include "nn/checkpoint.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/lstm.h"
#include "nn/loss.h"
#include "optim/adam.h"
#include "optim/sgd.h"
#include "test_util.h"

namespace fedcross {
namespace {

// ---------------------------------------------------- Flat layout per arch

class ZooArchTest : public ::testing::TestWithParam<std::string> {};

models::ModelFactory ZooFactory(const std::string& arch) {
  models::ModelSpec spec;
  spec.arch = arch;
  spec.height = spec.width = 8;
  spec.num_classes = 5;
  spec.vocab_size = 11;
  return models::MakeModelByName(spec).value();
}

TEST_P(ZooArchTest, FlatRoundTripIsIdentity) {
  models::ModelFactory factory = ZooFactory(GetParam());
  nn::Sequential model = factory();
  std::vector<float> flat = model.ParamsToFlat();
  util::Rng rng(1);
  for (float& value : flat) value += static_cast<float>(rng.Normal(0, 0.1));
  model.ParamsFromFlat(flat);
  EXPECT_EQ(model.ParamsToFlat(), flat);
}

TEST_P(ZooArchTest, TwoFactoryInstancesShareLayout) {
  models::ModelFactory factory = ZooFactory(GetParam());
  nn::Sequential a = factory();
  nn::Sequential b = factory();
  ASSERT_EQ(a.Params().size(), b.Params().size());
  for (std::size_t i = 0; i < a.Params().size(); ++i) {
    EXPECT_TRUE(a.Params()[i]->value.SameShape(b.Params()[i]->value));
  }
  EXPECT_EQ(a.ParamsToFlat(), b.ParamsToFlat());
}

TEST_P(ZooArchTest, CheckpointRoundTrip) {
  models::ModelFactory factory = ZooFactory(GetParam());
  nn::Sequential model = factory();
  std::string path =
      ::testing::TempDir() + "/prop_" + GetParam() + ".fcpt";
  ASSERT_TRUE(nn::SaveModel(model, path).ok());
  nn::Sequential other = factory();
  std::vector<float> flat = other.ParamsToFlat();
  for (float& value : flat) value = 0.0f;
  other.ParamsFromFlat(flat);
  ASSERT_TRUE(nn::LoadModel(other, path).ok());
  EXPECT_EQ(other.ParamsToFlat(), model.ParamsToFlat());
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Architectures, ZooArchTest,
                         ::testing::Values("cnn", "resnet", "vgg", "lstm"));

// ------------------------------------------- CrossAggr invariants (sweeps)

struct CrossCase {
  int k;
  double alpha;
};

class CrossAggrSweep : public ::testing::TestWithParam<CrossCase> {};

TEST_P(CrossAggrSweep, InOrderPreservesMeanForAllKAndAlpha) {
  CrossCase config = GetParam();
  util::Rng rng(2);
  std::vector<fl::FlatParams> uploaded(config.k, fl::FlatParams(12));
  for (auto& model : uploaded) {
    for (float& value : model) value = static_cast<float>(rng.Normal());
  }
  for (int round = 0; round < 2 * (config.k - 1); ++round) {
    std::vector<fl::FlatParams> fused(config.k);
    for (int i = 0; i < config.k; ++i) {
      int co = (i + (round % (config.k - 1) + 1)) % config.k;
      fused[i] = core::FedCross::CrossAggregate(uploaded[i], uploaded[co],
                                                config.alpha);
    }
    for (std::size_t d = 0; d < 12; ++d) {
      double before = 0.0, after = 0.0;
      for (int i = 0; i < config.k; ++i) {
        before += uploaded[i][d];
        after += fused[i][d];
      }
      ASSERT_NEAR(before, after, 1e-4);
    }
    uploaded = fused;  // iterate: invariant must hold round over round
  }
}

TEST_P(CrossAggrSweep, InOrderCollaboratorsFormPermutation) {
  CrossCase config = GetParam();
  for (int round = 0; round < 3 * config.k; ++round) {
    std::set<int> collaborators;
    for (int i = 0; i < config.k; ++i) {
      collaborators.insert((i + (round % (config.k - 1) + 1)) % config.k);
    }
    // Every uploaded model is chosen exactly once (paper Eq. 2 premise).
    EXPECT_EQ(collaborators.size(), static_cast<std::size_t>(config.k));
  }
}

INSTANTIATE_TEST_SUITE_P(
    KAlphaGrid, CrossAggrSweep,
    ::testing::Values(CrossCase{2, 0.5}, CrossCase{3, 0.8}, CrossCase{5, 0.9},
                      CrossCase{8, 0.99}, CrossCase{10, 0.7}));

// ------------------------------------------------ Partition rebalancing

struct PartitionCase {
  int clients;
  double beta;
};

class PartitionSweep : public ::testing::TestWithParam<PartitionCase> {};

TEST_P(PartitionSweep, MinSizeGuaranteedEvenAtExtremeSkew) {
  PartitionCase config = GetParam();
  util::Rng data_rng(3);
  std::vector<float> features(600);
  std::vector<int> labels(600);
  for (int i = 0; i < 600; ++i) labels[i] = i % 10;
  data::InMemoryDataset dataset({1}, std::move(features), std::move(labels),
                                10);
  util::Rng rng(4);
  data::Partition partition =
      data::DirichletPartition(dataset, config.clients, config.beta, rng, 2);
  ASSERT_EQ(partition.size(), static_cast<std::size_t>(config.clients));
  std::set<int> seen;
  std::size_t total = 0;
  for (const auto& shard : partition) {
    EXPECT_GE(shard.size(), 2u);
    seen.insert(shard.begin(), shard.end());
    total += shard.size();
  }
  // Still a partition after rebalancing.
  EXPECT_EQ(seen.size(), 600u);
  EXPECT_EQ(total, 600u);
}

INSTANTIATE_TEST_SUITE_P(
    SkewGrid, PartitionSweep,
    ::testing::Values(PartitionCase{10, 0.05}, PartitionCase{50, 0.05},
                      PartitionCase{100, 0.1}, PartitionCase{50, 0.5},
                      PartitionCase{200, 0.05}));

// --------------------------------------------- Communication invariance

class CommSweep : public ::testing::TestWithParam<int> {};

TEST_P(CommSweep, FedCrossMatchesFedAvgTrafficForAnyK) {
  int k = GetParam();
  auto factory = [] {
    util::Rng rng(5);
    nn::Sequential model;
    model.Add(std::make_unique<nn::Linear>(4, 2, rng));
    return model;
  };
  auto make_data = [] {
    data::FederatedDataset federated;
    federated.num_classes = 2;
    util::Rng rng(6);
    for (int c = 0; c < 12; ++c) {
      std::vector<float> features;
      std::vector<int> labels;
      for (int i = 0; i < 12; ++i) {
        int y = static_cast<int>(rng.UniformInt(2));
        for (int d = 0; d < 4; ++d) {
          features.push_back(y == 0 ? -1.0f : 1.0f);
        }
        labels.push_back(y);
      }
      federated.client_train.push_back(
          std::make_shared<data::InMemoryDataset>(
              Tensor::Shape{4}, std::move(features), std::move(labels), 2));
    }
    std::vector<float> features = {1, 1, 1, 1};
    federated.test = std::make_shared<data::InMemoryDataset>(
        Tensor::Shape{4}, std::move(features), std::vector<int>{1}, 2);
    return federated;
  };

  fl::AlgorithmConfig config;
  config.clients_per_round = k;
  config.train.local_epochs = 1;

  fl::FedAvg fedavg(config, make_data(), factory);
  fedavg.Run(1);
  core::FedCross fedcross(config, make_data(), factory,
                          core::FedCrossOptions());
  fedcross.Run(1);

  const fl::RoundRecord& avg_record = fedavg.history().records().back();
  const fl::RoundRecord& cross_record = fedcross.history().records().back();
  EXPECT_EQ(avg_record.bytes_down, cross_record.bytes_down);
  EXPECT_EQ(avg_record.bytes_up, cross_record.bytes_up);
}

INSTANTIATE_TEST_SUITE_P(Ks, CommSweep, ::testing::Values(2, 3, 6, 12));

// ------------------------------------------------- Serialization fuzzing

TEST(FuzzTest, TensorDeserializeNeverCrashesOnRandomBytes) {
  util::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> bytes(rng.UniformInt(64));
    for (auto& byte : bytes) {
      byte = static_cast<std::uint8_t>(rng.UniformInt(256));
    }
    std::size_t offset = 0;
    Tensor result;
    // Must return cleanly (true or false), never abort or overflow.
    Tensor::DeserializeFrom(bytes, offset, result);
  }
  SUCCEED();
}

TEST(FuzzTest, CheckpointLoadNeverCrashesOnRandomFiles) {
  util::Rng rng(8);
  std::string path = ::testing::TempDir() + "/fuzz.fcpt";
  util::Rng model_rng(9);
  nn::Sequential model;
  model.Add(std::make_unique<nn::Linear>(3, 2, model_rng));
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint8_t> bytes(rng.UniformInt(96));
    // Half the trials start with the real magic to reach deeper code.
    if (trial % 2 == 0 && bytes.size() >= 4) {
      bytes[0] = 0x54;
      bytes[1] = 0x50;
      bytes[2] = 0x43;
      bytes[3] = 0x46;
    }
    for (std::size_t i = 4; i < bytes.size(); ++i) {
      bytes[i] = static_cast<std::uint8_t>(rng.UniformInt(256));
    }
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    nn::LoadModel(model, path);  // must not crash
  }
  std::remove(path.c_str());
  SUCCEED();
}

// -------------------------------------------------- Optimizer equivalence

TEST(OptimizerPropertyTest, SgdAndAdamBothSolveToyProblem) {
  auto dataset = testing::MakeToyDataset(40, 4, 0.3f, 10);
  Tensor features;
  std::vector<int> labels;
  std::vector<int> all(dataset->size());
  for (int i = 0; i < dataset->size(); ++i) all[i] = i;
  dataset->GetBatch(all, features, labels);
  nn::CrossEntropyLoss criterion;

  for (std::string_view which : {"sgd", "adam"}) {
    util::Rng rng(11);
    nn::Sequential model;
    model.Add(std::make_unique<nn::Linear>(4, 2, rng));
    std::unique_ptr<optim::Sgd> sgd;
    std::unique_ptr<optim::Adam> adam;
    if (which == "sgd") {
      optim::SgdOptions options;
      options.lr = 0.1f;
      options.momentum = 0.9f;
      sgd = std::make_unique<optim::Sgd>(model.Params(), options);
    } else {
      optim::AdamOptions options;
      options.lr = 0.05f;
      adam = std::make_unique<optim::Adam>(model.Params(), options);
    }
    for (int step = 0; step < 80; ++step) {
      model.ZeroGrad();
      nn::LossResult loss =
          criterion.Compute(model.Forward(features, true), labels);
      model.Backward(loss.grad_logits);
      if (sgd) sgd->Step();
      if (adam) adam->Step();
    }
    float final_loss = criterion
                           .Compute(model.Forward(features, false), labels,
                                    false)
                           .loss;
    EXPECT_LT(final_loss, 0.2f) << which;
  }
}

// --------------------------------------------------- Long-sequence LSTM

TEST(LstmPropertyTest, GradCheckOnLongSequence) {
  util::Rng rng(12);
  nn::Sequential model;
  model.Add(std::make_unique<nn::Embedding>(6, 4, rng));
  model.Add(std::make_unique<nn::Lstm>(4, 5, rng));
  model.Add(std::make_unique<nn::Linear>(5, 3, rng));
  std::vector<float> ids(2 * 24);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<float>(i % 6);
  }
  Tensor input = Tensor::FromVector({2, 24}, std::move(ids));
  double err =
      testing::CheckParamGradients(model, input, {0, 2}, rng);
  EXPECT_LT(err, 0.08);  // BPTT through 24 steps stays numerically correct
}

}  // namespace
}  // namespace fedcross
