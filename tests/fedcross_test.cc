#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <set>

#include "core/fedcross.h"
#include "fl/parallel.h"
#include "nn/linear.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace fedcross::core {
namespace {

using fl::AlgorithmConfig;
using fl::FlatParams;

models::ModelFactory LinearFactory(int dim, std::uint64_t seed = 1) {
  return [dim, seed]() {
    util::Rng rng(seed);
    nn::Sequential model;
    model.Add(std::make_unique<nn::Linear>(dim, 2, rng));
    return model;
  };
}

data::FederatedDataset MakeToyFederated(int num_clients, int per_client,
                                        int dim, bool label_skew,
                                        std::uint64_t seed) {
  util::Rng rng(seed);
  data::FederatedDataset federated;
  federated.num_classes = 2;
  auto gen_example = [&](int k, std::vector<float>& features) {
    float mean = k == 0 ? -1.0f : 1.0f;
    for (int d = 0; d < dim; ++d) {
      features.push_back(mean + static_cast<float>(rng.Normal(0.0, 0.6)));
    }
  };
  for (int c = 0; c < num_clients; ++c) {
    std::vector<float> features;
    std::vector<int> labels;
    for (int i = 0; i < per_client; ++i) {
      int k = label_skew ? (rng.Uniform() < 0.9 ? c % 2 : 1 - c % 2)
                         : static_cast<int>(rng.UniformInt(2));
      gen_example(k, features);
      labels.push_back(k);
    }
    federated.client_train.push_back(std::make_shared<data::InMemoryDataset>(
        Tensor::Shape{dim}, std::move(features), std::move(labels), 2));
  }
  std::vector<float> features;
  std::vector<int> labels;
  for (int i = 0; i < 100; ++i) {
    gen_example(i % 2, features);
    labels.push_back(i % 2);
  }
  federated.test = std::make_shared<data::InMemoryDataset>(
      Tensor::Shape{dim}, std::move(features), std::move(labels), 2);
  return federated;
}

AlgorithmConfig ToyConfig(int k = 4) {
  AlgorithmConfig config;
  config.clients_per_round = k;
  config.train.local_epochs = 2;
  config.train.batch_size = 10;
  config.train.lr = 0.05f;
  config.seed = 17;
  return config;
}

FedCross MakeToyFedCross(FedCrossOptions options, int k = 4,
                         bool label_skew = true) {
  return FedCross(ToyConfig(k), MakeToyFederated(8, 40, 4, label_skew, 41),
                  LinearFactory(4), options);
}

// --------------------------------------------------------- Strategy names

TEST(SelectionStrategyTest, NameRoundTrip) {
  for (SelectionStrategy strategy :
       {SelectionStrategy::kInOrder, SelectionStrategy::kHighestSimilarity,
        SelectionStrategy::kLowestSimilarity}) {
    auto parsed = ParseSelectionStrategy(SelectionStrategyName(strategy));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), strategy);
  }
}

TEST(SelectionStrategyTest, ParseAliases) {
  EXPECT_EQ(ParseSelectionStrategy("inorder").value(),
            SelectionStrategy::kInOrder);
  EXPECT_EQ(ParseSelectionStrategy("lowest").value(),
            SelectionStrategy::kLowestSimilarity);
  EXPECT_EQ(ParseSelectionStrategy("highest").value(),
            SelectionStrategy::kHighestSimilarity);
  EXPECT_FALSE(ParseSelectionStrategy("random").ok());
}

// ------------------------------------------------------------- CrossAggr

TEST(CrossAggrTest, ConvexCombination) {
  FlatParams a = {1.0f, 2.0f};
  FlatParams b = {3.0f, 6.0f};
  FlatParams fused = FedCross::CrossAggregate(a, b, 0.75);
  EXPECT_FLOAT_EQ(fused[0], 0.75f * 1.0f + 0.25f * 3.0f);
  EXPECT_FLOAT_EQ(fused[1], 0.75f * 2.0f + 0.25f * 6.0f);
}

TEST(CrossAggrTest, AlphaOneKeepsModel) {
  FlatParams a = {1.0f, 2.0f};
  FlatParams b = {9.0f, 9.0f};
  // alpha must be < 1 in options, but CrossAggregate itself handles any
  // weight; 0.999999 is effectively identity.
  FlatParams fused = FedCross::CrossAggregate(a, b, 1.0);
  EXPECT_EQ(fused, a);
}

// Lemma 3.4 / Eq. 2 of the paper: in-order cross-aggregation preserves the
// model mean (every uploaded model is used exactly once as collaborator).
TEST(CrossAggrTest, InOrderPreservesMeanProperty) {
  util::Rng rng(1);
  int k = 6;
  std::size_t dim = 20;
  std::vector<FlatParams> uploaded(k, FlatParams(dim));
  for (auto& model : uploaded) {
    for (float& value : model) value = static_cast<float>(rng.Normal());
  }

  FedCrossOptions options;
  options.strategy = SelectionStrategy::kInOrder;
  options.alpha = 0.8;
  FedCross fedcross = MakeToyFedCross(options, k);

  for (int round : {0, 1, 5, 11}) {
    std::vector<FlatParams> fused(k);
    for (int i = 0; i < k; ++i) {
      int co = fedcross.SelectCollaborator(i, round, uploaded);
      fused[i] = FedCross::CrossAggregate(uploaded[i], uploaded[co], 0.8);
    }
    for (std::size_t d = 0; d < dim; ++d) {
      double before = 0.0, after = 0.0;
      for (int i = 0; i < k; ++i) {
        before += uploaded[i][d];
        after += fused[i][d];
      }
      EXPECT_NEAR(before, after, 1e-4) << "round " << round << " dim " << d;
    }
  }
}

// Lemma 3.4's contraction: cross-aggregation cannot increase the average
// squared distance to any fixed point w*.
TEST(CrossAggrTest, ContractionTowardsAnyPoint) {
  util::Rng rng(2);
  int k = 5;
  std::size_t dim = 10;
  std::vector<FlatParams> uploaded(k, FlatParams(dim));
  for (auto& model : uploaded) {
    for (float& value : model) value = static_cast<float>(rng.Normal());
  }
  FlatParams w_star(dim);
  for (float& value : w_star) value = static_cast<float>(rng.Normal());

  FedCrossOptions options;
  options.strategy = SelectionStrategy::kInOrder;
  FedCross fedcross = MakeToyFedCross(options, k);

  auto mean_sq_dist = [&](const std::vector<FlatParams>& models) {
    double total = 0.0;
    for (const auto& model : models) {
      for (std::size_t d = 0; d < dim; ++d) {
        total += (model[d] - w_star[d]) * (model[d] - w_star[d]);
      }
    }
    return total / models.size();
  };

  std::vector<FlatParams> fused(k);
  for (int i = 0; i < k; ++i) {
    int co = fedcross.SelectCollaborator(i, /*round=*/0, uploaded);
    fused[i] = FedCross::CrossAggregate(uploaded[i], uploaded[co], 0.7);
  }
  EXPECT_LE(mean_sq_dist(fused), mean_sq_dist(uploaded) + 1e-6);
}

// ------------------------------------------------------------ CoModelSel

TEST(CoModelSelTest, InOrderFormula) {
  FedCrossOptions options;
  options.strategy = SelectionStrategy::kInOrder;
  int k = 5;
  FedCross fedcross = MakeToyFedCross(options, k);
  std::vector<FlatParams> uploaded(k, FlatParams{0.0f});
  for (int round = 0; round < 12; ++round) {
    for (int i = 0; i < k; ++i) {
      int expected = (i + (round % (k - 1) + 1)) % k;
      EXPECT_EQ(fedcross.SelectCollaborator(i, round, uploaded), expected);
    }
  }
}

TEST(CoModelSelTest, InOrderNeverSelectsSelf) {
  FedCrossOptions options;
  options.strategy = SelectionStrategy::kInOrder;
  int k = 7;
  FedCross fedcross = MakeToyFedCross(options, k);
  std::vector<FlatParams> uploaded(k, FlatParams{0.0f});
  for (int round = 0; round < 30; ++round) {
    for (int i = 0; i < k; ++i) {
      EXPECT_NE(fedcross.SelectCollaborator(i, round, uploaded), i);
    }
  }
}

TEST(CoModelSelTest, InOrderMeetsEveryPeerWithinKMinus1Rounds) {
  // The paper: "in every (K-1) rounds of training, each middleware model
  // collaborates with all the other (K-1) models once."
  FedCrossOptions options;
  options.strategy = SelectionStrategy::kInOrder;
  int k = 6;
  FedCross fedcross = MakeToyFedCross(options, k);
  std::vector<FlatParams> uploaded(k, FlatParams{0.0f});
  for (int i = 0; i < k; ++i) {
    std::set<int> partners;
    for (int round = 0; round < k - 1; ++round) {
      partners.insert(fedcross.SelectCollaborator(i, round, uploaded));
    }
    EXPECT_EQ(partners.size(), static_cast<std::size_t>(k - 1));
  }
}

TEST(CoModelSelTest, SimilarityStrategiesPickExtremes) {
  // Three models: m0 and m1 nearly parallel, m2 nearly opposite to m0.
  std::vector<FlatParams> uploaded = {
      {1.0f, 0.0f, 0.0f},
      {0.9f, 0.1f, 0.0f},
      {-1.0f, 0.05f, 0.0f},
  };
  FedCrossOptions highest;
  highest.strategy = SelectionStrategy::kHighestSimilarity;
  FedCross fedcross_high = MakeToyFedCross(highest, 3);
  EXPECT_EQ(fedcross_high.SelectCollaborator(0, 0, uploaded), 1);

  FedCrossOptions lowest;
  lowest.strategy = SelectionStrategy::kLowestSimilarity;
  FedCross fedcross_low = MakeToyFedCross(lowest, 3);
  EXPECT_EQ(fedcross_low.SelectCollaborator(0, 0, uploaded), 2);
}

TEST(CoModelSelTest, SimilarityNeverSelectsSelf) {
  util::Rng rng(3);
  std::vector<FlatParams> uploaded(4, FlatParams(8));
  for (auto& model : uploaded) {
    for (float& value : model) value = static_cast<float>(rng.Normal());
  }
  for (auto strategy : {SelectionStrategy::kHighestSimilarity,
                        SelectionStrategy::kLowestSimilarity}) {
    FedCrossOptions options;
    options.strategy = strategy;
    FedCross fedcross = MakeToyFedCross(options, 4);
    for (int i = 0; i < 4; ++i) {
      int co = fedcross.SelectCollaborator(i, 0, uploaded);
      EXPECT_NE(co, i);
      EXPECT_GE(co, 0);
      EXPECT_LT(co, 4);
    }
  }
}


// Restores the sequential default even if an assertion aborts the test body.
struct FlThreadsGuard {
  ~FlThreadsGuard() { fl::SetFlThreads(1); }
};

std::vector<FlatParams> RandomModels(int k, std::size_t dim,
                                     std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<FlatParams> models(k, FlatParams(dim));
  for (auto& model : models) {
    for (float& value : model) value = static_cast<float>(rng.Normal());
  }
  return models;
}

TEST(CoModelSelTest, SimilarityIsBitwiseSymmetric) {
  // The round's K x K matrix scans each unordered pair once; that is exact
  // only if Similarity(x, y) and Similarity(y, x) are the same double.
  for (std::size_t dim : {1u, 3u, 4u, 37u, 1001u}) {
    std::vector<FlatParams> models = RandomModels(2, dim, dim);
    for (SimilarityMeasure measure :
         {SimilarityMeasure::kCosine, SimilarityMeasure::kNegativeEuclidean}) {
      double xy = ModelSimilarity(models[0], models[1], measure);
      double yx = ModelSimilarity(models[1], models[0], measure);
      EXPECT_EQ(std::memcmp(&xy, &yx, sizeof(double)), 0)
          << SimilarityMeasureName(measure) << " dim " << dim;
    }
  }
}

TEST(CoModelSelTest, MatrixSelectionMatchesPerModelReference) {
  FlThreadsGuard guard;
  for (int threads : {1, 4}) {
    fl::SetFlThreads(threads);
    for (SelectionStrategy strategy :
         {SelectionStrategy::kInOrder, SelectionStrategy::kHighestSimilarity,
          SelectionStrategy::kLowestSimilarity}) {
      for (SimilarityMeasure measure :
           {SimilarityMeasure::kCosine,
            SimilarityMeasure::kNegativeEuclidean}) {
        FedCrossOptions options;
        options.strategy = strategy;
        options.similarity = measure;
        FedCross fedcross = MakeToyFedCross(options, 4);
        for (int k : {2, 3, 16}) {
          // 37 coordinates: the cosine kernel's 4-lane tail is exercised.
          std::vector<FlatParams> distinct = RandomModels(k, 37, 100 + k);
          // Exact ties: duplicates make whole similarity values repeat, so
          // the pick must keep the lowest index on both paths.
          std::vector<FlatParams> duplicated = distinct;
          for (int i = 2; i < k; i += 2) duplicated[i] = duplicated[0];
          if (k >= 4) duplicated[3] = duplicated[1];
          for (const auto* uploaded : {&distinct, &duplicated}) {
            for (int round : {0, 1, 7}) {
              std::vector<int> collaborators;
              fedcross.SelectCollaborators(round, *uploaded, collaborators);
              ASSERT_EQ(collaborators.size(), static_cast<std::size_t>(k));
              for (int i = 0; i < k; ++i) {
                EXPECT_EQ(collaborators[i],
                          fedcross.SelectCollaborator(i, round, *uploaded))
                    << SelectionStrategyName(strategy) << " "
                    << SimilarityMeasureName(measure) << " k=" << k
                    << " i=" << i << " round=" << round
                    << " threads=" << threads;
              }
            }
          }
        }
      }
    }
  }
}

TEST(CoModelSelTest, NonFiniteUploadFallsBackToInOrder) {
  // Every similarity in a NaN model's row is NaN, so no candidate compares;
  // the pick falls back to the in-order collaborator instead of returning
  // an out-of-range index. The other rows still choose among real values.
  const int k = 5;
  std::vector<FlatParams> uploaded = RandomModels(k, 9, 3);
  uploaded[2].assign(9, std::numeric_limits<float>::quiet_NaN());
  for (SelectionStrategy strategy : {SelectionStrategy::kHighestSimilarity,
                                     SelectionStrategy::kLowestSimilarity}) {
    for (SimilarityMeasure measure :
         {SimilarityMeasure::kCosine, SimilarityMeasure::kNegativeEuclidean}) {
      FedCrossOptions options;
      options.strategy = strategy;
      options.similarity = measure;
      FedCross fedcross = MakeToyFedCross(options, 4);
      for (int round : {0, 1, 2, 3}) {
        EXPECT_EQ(fedcross.SelectCollaborator(2, round, uploaded),
                  (2 + (round % (k - 1) + 1)) % k);
        std::vector<int> collaborators;
        fedcross.SelectCollaborators(round, uploaded, collaborators);
        for (int i = 0; i < k; ++i) {
          int co = fedcross.SelectCollaborator(i, round, uploaded);
          EXPECT_EQ(collaborators[i], co);
          EXPECT_NE(co, i);
          EXPECT_GE(co, 0);
          EXPECT_LT(co, k);
          if (i != 2) {
            EXPECT_NE(co, 2) << "NaN never wins a comparison";
          }
        }
      }
    }
  }
}

TEST(FedCrossTest, UnscreenedNanUploadsDoNotBreakTheRound) {
  // Regression: with every upload NaN-corrupted and screening off, every
  // similarity row was NaN and the round indexed uploaded_[-1].
  AlgorithmConfig config = ToyConfig(3);
  config.faults.profile.corrupt_prob = 1.0;
  config.faults.profile.corruption = fl::CorruptionKind::kNanInject;
  FedCross fedcross(config, MakeToyFederated(8, 40, 4, true, 41),
                    LinearFactory(4), FedCrossOptions());
  for (int round = 0; round < 3; ++round) fedcross.RunRound(round);
  ASSERT_EQ(fedcross.middleware().size(), 3u);
  for (const FlatParams& model : fedcross.middleware()) {
    EXPECT_EQ(model.size(), static_cast<std::size_t>(fedcross.model_size()));
  }
}


TEST(SimilarityMeasureTest, NameRoundTrip) {
  for (SimilarityMeasure measure :
       {SimilarityMeasure::kCosine, SimilarityMeasure::kNegativeEuclidean}) {
    auto parsed = ParseSimilarityMeasure(SimilarityMeasureName(measure));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), measure);
  }
  EXPECT_FALSE(ParseSimilarityMeasure("manhattan").ok());
}

TEST(SimilarityMeasureTest, MeasuresCanDisagree) {
  // Cosine ignores magnitude; Euclidean does not. y1 is aligned with x but
  // far away; y2 is misaligned but close.
  fl::FlatParams x = {1.0f, 0.0f};
  fl::FlatParams aligned_far = {10.0f, 0.0f};
  fl::FlatParams close_misaligned = {0.9f, 0.5f};
  EXPECT_GT(ModelSimilarity(x, aligned_far, SimilarityMeasure::kCosine),
            ModelSimilarity(x, close_misaligned, SimilarityMeasure::kCosine));
  EXPECT_LT(
      ModelSimilarity(x, aligned_far, SimilarityMeasure::kNegativeEuclidean),
      ModelSimilarity(x, close_misaligned,
                      SimilarityMeasure::kNegativeEuclidean));
}

TEST(SimilarityMeasureTest, EuclideanSelectionWorksInFedCross) {
  FedCrossOptions options;
  options.alpha = 0.9;
  options.similarity = SimilarityMeasure::kNegativeEuclidean;
  options.strategy = SelectionStrategy::kLowestSimilarity;
  FedCross fedcross = MakeToyFedCross(options, 4);
  const fl::MetricsHistory& history = fedcross.Run(8);
  EXPECT_GT(history.BestAccuracy(), 0.8f);
}

// ---------------------------------------------------------- Dynamic alpha

TEST(DynamicAlphaTest, ConstantWhenDisabled) {
  FedCrossOptions options;
  options.alpha = 0.99;
  FedCross fedcross = MakeToyFedCross(options);
  EXPECT_DOUBLE_EQ(fedcross.AlphaAt(0), 0.99);
  EXPECT_DOUBLE_EQ(fedcross.AlphaAt(1000), 0.99);
}

TEST(DynamicAlphaTest, RampsFromStartToTarget) {
  FedCrossOptions options;
  options.alpha = 0.99;
  options.dynamic_alpha_rounds = 100;
  options.dynamic_alpha_start = 0.5;
  FedCross fedcross = MakeToyFedCross(options);
  EXPECT_NEAR(fedcross.AlphaAt(0), 0.5 + 0.49 / 100, 1e-9);
  EXPECT_NEAR(fedcross.AlphaAt(49), 0.5 + 0.49 * 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(fedcross.AlphaAt(100), 0.99);
  EXPECT_DOUBLE_EQ(fedcross.AlphaAt(500), 0.99);
  // Monotone non-decreasing.
  for (int r = 1; r < 120; ++r) {
    EXPECT_GE(fedcross.AlphaAt(r), fedcross.AlphaAt(r - 1) - 1e-12);
  }
}

TEST(DynamicAlphaTest, DelayedWindowForPmDa) {
  // PM-DA: propellers for rounds [0,50), dynamic alpha for [50,100).
  FedCrossOptions options;
  options.alpha = 0.99;
  options.dynamic_alpha_begin = 50;
  options.dynamic_alpha_rounds = 50;
  FedCross fedcross = MakeToyFedCross(options);
  EXPECT_DOUBLE_EQ(fedcross.AlphaAt(10), 0.99);  // before window: target
  EXPECT_LT(fedcross.AlphaAt(50), 0.6);          // ramp restarts at 0.5
  EXPECT_DOUBLE_EQ(fedcross.AlphaAt(100), 0.99);
}

// ----------------------------------------------------------- Integration

TEST(FedCrossTest, MiddlewareListHasKModels) {
  FedCross fedcross = MakeToyFedCross(FedCrossOptions(), 5);
  EXPECT_EQ(fedcross.middleware().size(), 5u);
}

TEST(FedCrossTest, GlobalIsAverageOfMiddleware) {
  FedCross fedcross = MakeToyFedCross(FedCrossOptions(), 3);
  fedcross.RunRound(0);
  const auto& middleware = fedcross.middleware();
  FlatParams global = fedcross.GlobalParams();
  for (std::size_t d = 0; d < global.size(); ++d) {
    double mean = 0.0;
    for (const auto& model : middleware) mean += model[d];
    mean /= middleware.size();
    EXPECT_NEAR(global[d], mean, 1e-5);
  }
}

TEST(FedCrossTest, MiddlewareModelsDivergeThenStayDistinct) {
  FedCrossOptions options;
  options.alpha = 0.9;
  FedCross fedcross = MakeToyFedCross(options, 4);
  fedcross.RunRound(0);
  const auto& middleware = fedcross.middleware();
  // After one round on different clients the middleware models differ.
  EXPECT_NE(middleware[0], middleware[1]);
}

TEST(FedCrossTest, LearnsToyProblemNonIid) {
  FedCrossOptions options;
  options.alpha = 0.9;
  options.strategy = SelectionStrategy::kLowestSimilarity;
  FedCross fedcross = MakeToyFedCross(options, 4);
  const fl::MetricsHistory& history = fedcross.Run(10);
  EXPECT_GT(history.BestAccuracy(), 0.9f);
}

TEST(FedCrossTest, CommunicationMatchesFedAvg) {
  // The headline claim: no extra communication versus FedAvg (2K models).
  FedCross fedcross = MakeToyFedCross(FedCrossOptions(), 4);
  fedcross.Run(1);
  double model_bytes = fl::CommTracker::FloatBytes(fedcross.model_size());
  const fl::RoundRecord& record = fedcross.history().records().back();
  EXPECT_EQ(record.bytes_down, 4 * model_bytes);
  EXPECT_EQ(record.bytes_up, 4 * model_bytes);
}

TEST(FedCrossTest, PropellerRoundsRun) {
  FedCrossOptions options;
  options.alpha = 0.9;
  options.propeller_count = 2;
  options.propeller_rounds = 3;
  FedCross fedcross = MakeToyFedCross(options, 4);
  const fl::MetricsHistory& history = fedcross.Run(6);
  EXPECT_GT(history.BestAccuracy(), 0.8f);
}

TEST(FedCrossTest, PropellerIndicesAreDistinctAndExcludeSelf) {
  // Regression: the old fix-up (`if (j == i) j = (j + 1) % k;` per pick)
  // double-counted a propeller whenever the skip landed on an index already
  // taken. Concretely, k=4, count=3, round=2 for model 0 selected
  // {3, 1, 1} — model 2 never contributed. The walk-based selection must
  // return every other model exactly once.
  std::vector<int> indices =
      FedCross::SelectPropellerIndices(/*model_index=*/0, /*round=*/2,
                                       /*k=*/4, /*count=*/3);
  EXPECT_EQ(indices, (std::vector<int>{3, 1, 2}));

  for (int k : {3, 4, 5, 8}) {
    for (int round = 0; round < 2 * k; ++round) {
      for (int count = 1; count <= k; ++count) {
        for (int i = 0; i < k; ++i) {
          std::vector<int> picks =
              FedCross::SelectPropellerIndices(i, round, k, count);
          EXPECT_EQ(static_cast<int>(picks.size()), std::min(count, k - 1));
          std::set<int> unique(picks.begin(), picks.end());
          EXPECT_EQ(unique.size(), picks.size())
              << "duplicate propeller: k=" << k << " round=" << round
              << " count=" << count << " i=" << i;
          EXPECT_EQ(unique.count(i), 0u) << "model aggregated with itself";
          for (int p : picks) {
            EXPECT_GE(p, 0);
            EXPECT_LT(p, k);
          }
        }
      }
    }
  }
}

TEST(FedCrossTest, PropellerFirstPickIsInOrderCollaborator) {
  // The walk starts at the in-order collaborator, preserving the paper's
  // single-propeller behaviour when propeller_count == 1.
  for (int k : {3, 4, 6}) {
    for (int round = 0; round < k; ++round) {
      for (int i = 0; i < k; ++i) {
        std::vector<int> picks =
            FedCross::SelectPropellerIndices(i, round, k, /*count=*/1);
        ASSERT_EQ(picks.size(), 1u);
        EXPECT_EQ(picks[0], (i + (round % (k - 1) + 1)) % k);
      }
    }
  }
}

TEST(FedCrossTest, AllStrategiesLearn) {
  for (auto strategy :
       {SelectionStrategy::kInOrder, SelectionStrategy::kHighestSimilarity,
        SelectionStrategy::kLowestSimilarity}) {
    FedCrossOptions options;
    options.alpha = 0.9;
    options.strategy = strategy;
    FedCross fedcross = MakeToyFedCross(options, 4);
    const fl::MetricsHistory& history = fedcross.Run(8);
    EXPECT_GT(history.BestAccuracy(), 0.8f)
        << SelectionStrategyName(strategy);
  }
}

class FedCrossAlphaSweep : public ::testing::TestWithParam<double> {};

TEST_P(FedCrossAlphaSweep, LearnsAtEveryPaperAlpha) {
  FedCrossOptions options;
  options.alpha = GetParam();
  FedCross fedcross = MakeToyFedCross(options, 4);
  const fl::MetricsHistory& history = fedcross.Run(8);
  EXPECT_GT(history.BestAccuracy(), 0.75f) << "alpha " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(PaperAlphas, FedCrossAlphaSweep,
                         ::testing::Values(0.5, 0.8, 0.9, 0.95, 0.99));


TEST(FedCrossTest, MiddlewareModelsGrowMoreSimilar) {
  // Paper Section III-D: "each middleware model gradually becomes
  // well-trained with fully exchanged knowledge, leading to a notable
  // increase in the similarity among middleware models."
  FedCrossOptions options;
  options.alpha = 0.9;
  FedCross fedcross = MakeToyFedCross(options, 4);

  auto mean_pairwise_similarity = [&]() {
    const auto& middleware = fedcross.middleware();
    double total = 0.0;
    int pairs = 0;
    for (std::size_t i = 0; i < middleware.size(); ++i) {
      for (std::size_t j = i + 1; j < middleware.size(); ++j) {
        total += ModelSimilarity(middleware[i], middleware[j],
                                 SimilarityMeasure::kCosine);
        ++pairs;
      }
    }
    return total / pairs;
  };

  for (int round = 0; round < 3; ++round) fedcross.RunRound(round);
  double early = mean_pairwise_similarity();
  for (int round = 3; round < 20; ++round) fedcross.RunRound(round);
  double late = mean_pairwise_similarity();
  EXPECT_GT(late, early);
  EXPECT_GT(late, 0.9);  // near-unified by the end of training
}

TEST(FedCrossTest, DeterministicAcrossRuns) {
  FedCrossOptions options;
  FedCross a = MakeToyFedCross(options, 4);
  FedCross b = MakeToyFedCross(options, 4);
  a.RunRound(0);
  b.RunRound(0);
  EXPECT_EQ(a.middleware()[0], b.middleware()[0]);
}

}  // namespace
}  // namespace fedcross::core
