// Parallel client training must be bit-identical to the sequential legacy
// path: every client job trains under an Rng seeded from
// (config.seed, round, salt, slot), so neither the thread count nor the
// execution schedule can leak into the results. These tests run the same
// federation under --fl_threads=1 and --fl_threads=4 and require exactly
// equal GlobalParams() after 5 rounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "comm/wire.h"
#include "core/fedcross.h"
#include "data/partition.h"
#include "data/synthetic_image.h"
#include "fl/algorithm.h"
#include "fl/fedavg.h"
#include "fl/plan_runner.h"
#include "models/model_zoo.h"
#include "nn/linear.h"
#include "test_util.h"

namespace fedcross::fl {
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
                                        int dim, std::uint64_t seed) {
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
      int k = rng.Uniform() < 0.9 ? c % 2 : 1 - c % 2;
      gen_example(k, features);
      labels.push_back(k);
    }
    federated.client_train.push_back(std::make_shared<data::InMemoryDataset>(
        Tensor::Shape{dim}, std::move(features), std::move(labels), 2));
  }
  std::vector<float> features;
  std::vector<int> labels;
  for (int i = 0; i < 40; ++i) {
    gen_example(i % 2, features);
    labels.push_back(i % 2);
  }
  federated.test = std::make_shared<data::InMemoryDataset>(
      Tensor::Shape{dim}, std::move(features), std::move(labels), 2);
  return federated;
}

AlgorithmConfig ToyConfig() {
  AlgorithmConfig config;
  config.clients_per_round = 4;
  config.train.local_epochs = 2;
  config.train.batch_size = 10;
  config.train.lr = 0.05f;
  config.seed = 17;
  // Nonzero dropout so the per-job dropout draw is exercised too: a
  // schedule-dependent draw would desynchronise the two runs immediately.
  config.faults.profile.dropout_prob = 0.2;
  return config;
}

// Restores the sequential default even if an assertion aborts the test body.
struct FlThreadsGuard {
  ~FlThreadsGuard() { SetFlThreads(1); }
};

void ExpectBitIdentical(const FlatParams& a, const FlatParams& b) {
  ASSERT_EQ(a.size(), b.size());
  if (a.empty()) return;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

FlatParams RunFedAvg(int threads, int rounds) {
  SetFlThreads(threads);
  FedAvg fedavg(ToyConfig(), MakeToyFederated(8, 40, 4, 41),
                LinearFactory(4));
  for (int r = 0; r < rounds; ++r) fedavg.RunRound(r);
  return fedavg.GlobalParams();
}

FlatParams RunFedCross(int threads, int rounds) {
  SetFlThreads(threads);
  core::FedCrossOptions options;
  options.alpha = 0.9;
  options.strategy = core::SelectionStrategy::kLowestSimilarity;
  core::FedCross fedcross(ToyConfig(), MakeToyFederated(8, 40, 4, 41),
                          LinearFactory(4), options);
  for (int r = 0; r < rounds; ++r) fedcross.RunRound(r);
  return fedcross.GlobalParams();
}

TEST(ParallelDeterminismTest, FlThreadsResolvesRequests) {
  FlThreadsGuard guard;
  SetFlThreads(1);
  EXPECT_EQ(FlThreads(), 1);
  SetFlThreads(4);
  EXPECT_EQ(FlThreads(), 4);
  SetFlThreads(0);  // auto: hardware_concurrency, never < 1
  EXPECT_GE(FlThreads(), 1);
}

TEST(ParallelDeterminismTest, ParallelWidthCountsTheCallingThread) {
  // --fl_threads N means N pool workers; the caller joins every fan-out as
  // one more thread, except at N = 1, where there is no pool.
  FlThreadsGuard guard;
  SetFlThreads(1);
  EXPECT_EQ(ParallelWidth(), 1);
  SetFlThreads(2);
  EXPECT_EQ(ParallelWidth(), 3);
  SetFlThreads(4);
  EXPECT_EQ(ParallelWidth(), 5);
}

// The [begin, end) ranges ParallelRanges hands to fn, sorted by begin.
std::vector<std::pair<std::int64_t, std::int64_t>> RangesOf(
    std::int64_t n, std::int64_t min_per_range) {
  std::mutex mutex;
  std::vector<std::pair<std::int64_t, std::int64_t>> ranges;
  ParallelRanges(n, min_per_range, [&](std::int64_t begin, std::int64_t end) {
    std::lock_guard<std::mutex> lock(mutex);
    ranges.emplace_back(begin, end);
  });
  std::sort(ranges.begin(), ranges.end());
  return ranges;
}

// Every range is non-empty, each starts where the previous one ended, and
// together they cover [0, n).
void ExpectContiguousCover(
    const std::vector<std::pair<std::int64_t, std::int64_t>>& ranges,
    std::int64_t n) {
  ASSERT_FALSE(ranges.empty());
  std::int64_t next = 0;
  for (const auto& [begin, end] : ranges) {
    EXPECT_EQ(begin, next);
    EXPECT_LT(begin, end);
    next = end;
  }
  EXPECT_EQ(next, n);
}

TEST(ParallelDeterminismTest, ParallelRangesSpanTheFanOutWidth) {
  FlThreadsGuard guard;
  const std::int64_t min_per_range = 16;
  SetFlThreads(2);
  for (std::int64_t n : {3 * min_per_range, 3 * min_per_range + 5,
                         std::int64_t{1000}}) {
    SCOPED_TRACE(n);
    auto ranges = RangesOf(n, min_per_range);
    EXPECT_EQ(ranges.size(), 3u);
    ExpectContiguousCover(ranges, n);
  }
  auto two = RangesOf(2 * min_per_range, min_per_range);
  EXPECT_EQ(two.size(), 2u);
  ExpectContiguousCover(two, 2 * min_per_range);

  SetFlThreads(1);
  auto one = RangesOf(1000, min_per_range);
  EXPECT_EQ(one.size(), 1u);
  ExpectContiguousCover(one, 1000);
}

TEST(ParallelDeterminismTest, AverageMatchesTheSerialSumThenScale) {
  // GlobalModelGen is range-sharded; every element must still see the
  // serial loop's adds in model order, then the 1/K scale.
  struct Probe : FedAvg {
    using FedAvg::Average;
  };
  FlThreadsGuard guard;
  const std::size_t n = 5 * 4096 * 3 + 7;  // a range per thread at width 5
  std::vector<FlatParams> models(5, FlatParams(n));
  util::Rng rng(12);
  for (FlatParams& model : models) {
    for (float& v : model) v = static_cast<float>(rng.Normal());
  }
  FlatParams serial(n, 0.0f);
  for (const FlatParams& model : models) {
    for (std::size_t i = 0; i < n; ++i) serial[i] += model[i];
  }
  for (float& v : serial) v *= 1.0f / static_cast<float>(models.size());
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    SetFlThreads(threads);
    ExpectBitIdentical(Probe::Average(models), serial);
  }
}

TEST(ParallelDeterminismTest, FedAvgIsThreadCountInvariant) {
  FlThreadsGuard guard;
  FlatParams sequential = RunFedAvg(/*threads=*/1, /*rounds=*/5);
  FlatParams parallel = RunFedAvg(/*threads=*/4, /*rounds=*/5);
  ExpectBitIdentical(sequential, parallel);
}

TEST(ParallelDeterminismTest, FedCrossIsThreadCountInvariant) {
  FlThreadsGuard guard;
  FlatParams sequential = RunFedCross(/*threads=*/1, /*rounds=*/5);
  FlatParams parallel = RunFedCross(/*threads=*/4, /*rounds=*/5);
  ExpectBitIdentical(sequential, parallel);
}

TEST(ParallelDeterminismTest, EvaluationIsThreadCountInvariant) {
  // Parallel evaluation shards test batches across replicas but reduces the
  // per-batch partials in batch order, so loss and accuracy are exactly
  // equal at every thread count.
  FlThreadsGuard guard;
  SetFlThreads(1);
  AlgorithmConfig config = ToyConfig();
  config.eval_batch_size = 7;  // 40 test examples -> 6 uneven batches
  FedAvg fedavg(config, MakeToyFederated(8, 40, 4, 41), LinearFactory(4));
  for (int r = 0; r < 2; ++r) fedavg.RunRound(r);
  FlatParams params = fedavg.GlobalParams();

  EvalResult serial = fedavg.Evaluate(params);
  SetFlThreads(2);
  ASSERT_EQ(ParallelWidth(), 3);  // 3 shards of 2 batches each
  EvalResult two = fedavg.Evaluate(params);
  SetFlThreads(4);
  EvalResult four = fedavg.Evaluate(params);
  SetFlThreads(3);
  EvalResult three = fedavg.Evaluate(params);

  EXPECT_EQ(serial.loss, two.loss);
  EXPECT_EQ(serial.accuracy, two.accuracy);
  EXPECT_EQ(serial.loss, four.loss);
  EXPECT_EQ(serial.accuracy, four.accuracy);
  EXPECT_EQ(serial.loss, three.loss);
  EXPECT_EQ(serial.accuracy, three.accuracy);
}

TEST(ParallelDeterminismTest, CnnEvaluationIsThreadCountInvariant) {
  // Conv evaluation runs Im2Col on every eval shard's thread at once, each
  // through its own thread-local bordered scratch; no shard may see
  // another's planes, whatever the thread count.
  FlThreadsGuard guard;
  SetFlThreads(1);
  data::SyntheticImageOptions image;
  image.num_classes = 4;
  image.height = image.width = 8;
  image.train_per_class = 10;
  image.test_per_class = 8;  // 32 test images -> batches 7,7,7,7,4
  image.seed = 3;
  data::ImageCorpus corpus = data::MakeSyntheticImageCorpus(image);
  util::Rng rng(4);
  data::FederatedDataset federated;
  federated.num_classes = 4;
  federated.client_train = data::MakeClientShards(
      corpus.train, data::IidPartition(*corpus.train, 4, rng));
  federated.test = corpus.test;
  models::CnnConfig cnn;
  cnn.height = cnn.width = 8;
  cnn.num_classes = 4;
  AlgorithmConfig config = ToyConfig();
  config.eval_batch_size = 7;
  FedAvg fedavg(config, std::move(federated), models::MakeCnn(cnn));
  fedavg.RunRound(0);
  FlatParams params = fedavg.GlobalParams();

  EvalResult serial = fedavg.Evaluate(params);
  SetFlThreads(2);
  EvalResult two = fedavg.Evaluate(params);
  SetFlThreads(4);
  ASSERT_EQ(ParallelWidth(), 5);  // one batch per shard
  EvalResult four = fedavg.Evaluate(params);

  EXPECT_EQ(serial.loss, two.loss);
  EXPECT_EQ(serial.accuracy, two.accuracy);
  EXPECT_EQ(serial.loss, four.loss);
  EXPECT_EQ(serial.accuracy, four.accuracy);
}

TEST(ParallelDeterminismTest, OddThreadCountMatchesToo) {
  // The schedule changes completely between 3 and 4 threads; the params
  // must not.
  FlThreadsGuard guard;
  FlatParams three = RunFedCross(/*threads=*/3, /*rounds=*/3);
  FlatParams four = RunFedCross(/*threads=*/4, /*rounds=*/3);
  ExpectBitIdentical(three, four);
}

// A config that exercises every fault class at once: dropout, straggler
// racing a deadline, Byzantine sign-flip corruption, over-provisioned
// selection, server-side screening, and a robust aggregator. All fault
// draws come from the per-slot fault stream, so the whole stack must stay
// bit-identical across thread counts.
AlgorithmConfig FaultyConfig() {
  AlgorithmConfig config = ToyConfig();
  config.faults.profile.dropout_prob = 0.1;
  config.faults.profile.straggler_prob = 0.3;
  config.faults.profile.slowdown_min = 2.0;
  config.faults.profile.slowdown_max = 8.0;
  config.faults.round_deadline = 5.0;
  config.faults.profile.corrupt_prob = 0.25;
  config.faults.profile.corruption = CorruptionKind::kSignFlip;
  config.faults.profile.corruption_scale = 10.0f;
  config.faults.over_provision = 1;
  config.screening.check_finite = true;
  config.screening.max_update_norm = 50.0f;
  config.aggregator.kind = AggregatorKind::kTrimmedMean;
  config.aggregator.trim_ratio = 0.25;
  return config;
}

TEST(ParallelDeterminismTest, FaultInjectionIsThreadCountInvariant) {
  FlThreadsGuard guard;
  auto run = [](int threads) {
    SetFlThreads(threads);
    FedAvg fedavg(FaultyConfig(), MakeToyFederated(8, 40, 4, 41),
                  LinearFactory(4));
    for (int r = 0; r < 5; ++r) fedavg.RunRound(r);
    return fedavg.GlobalParams();
  };
  FlatParams one = run(1);
  FlatParams two = run(2);
  FlatParams four = run(4);
  ExpectBitIdentical(one, two);
  ExpectBitIdentical(one, four);
}

TEST(ParallelDeterminismTest, FaultyFedCrossIsThreadCountInvariant) {
  FlThreadsGuard guard;
  auto run = [](int threads) {
    SetFlThreads(threads);
    core::FedCrossOptions options;
    options.alpha = 0.9;
    core::FedCross fedcross(FaultyConfig(), MakeToyFederated(8, 40, 4, 41),
                            LinearFactory(4), options);
    for (int r = 0; r < 5; ++r) fedcross.RunRound(r);
    return fedcross.GlobalParams();
  };
  FlatParams one = run(1);
  FlatParams two = run(2);
  FlatParams four = run(4);
  ExpectBitIdentical(one, two);
  ExpectBitIdentical(one, four);
}

// --------------------------------------------------------------------------
// Differential-privacy determinism
// --------------------------------------------------------------------------

// DP noise is drawn from the dedicated per-(seed, round, salt, slot)
// privacy stream (privacy/dp.h), never from the training rng — so a noised
// run must be bit-identical across thread counts, exactly like the fault
// and codec streams.
TEST(ParallelDeterminismTest, DpNoiseIsThreadCountInvariant) {
  FlThreadsGuard guard;
  auto run = [](int threads) {
    SetFlThreads(threads);
    AlgorithmConfig config = ToyConfig();
    config.dp.clip_norm = 0.5f;
    config.dp.noise_multiplier = 1.0f;
    FedAvg fedavg(config, MakeToyFederated(8, 40, 4, 41), LinearFactory(4));
    for (int r = 0; r < 5; ++r) fedavg.RunRound(r);
    return fedavg.GlobalParams();
  };
  FlatParams one = run(1);
  FlatParams two = run(2);
  FlatParams four = run(4);
  ExpectBitIdentical(one, two);
  ExpectBitIdentical(one, four);
}

TEST(ParallelDeterminismTest, DpFedCrossWithFaultsIsThreadCountInvariant) {
  FlThreadsGuard guard;
  auto run = [](int threads) {
    SetFlThreads(threads);
    AlgorithmConfig config = FaultyConfig();
    config.dp.clip_norm = 0.5f;
    config.dp.noise_multiplier = 1.0f;
    config.secure_agg.enabled = true;
    core::FedCrossOptions options;
    options.alpha = 0.9;
    core::FedCross fedcross(config, MakeToyFederated(8, 40, 4, 41),
                            LinearFactory(4), options);
    for (int r = 0; r < 5; ++r) fedcross.RunRound(r);
    return fedcross.GlobalParams();
  };
  FlatParams one = run(1);
  FlatParams two = run(2);
  FlatParams four = run(4);
  ExpectBitIdentical(one, two);
  ExpectBitIdentical(one, four);
}

// --------------------------------------------------------------------------
// Wire codec determinism
// --------------------------------------------------------------------------

FlatParams RunFedCrossWithCodec(int threads, int rounds,
                                comm::Scheme scheme) {
  SetFlThreads(threads);
  AlgorithmConfig config = ToyConfig();
  config.codec.scheme = scheme;
  config.codec.topk_fraction = 0.25;
  core::FedCrossOptions options;
  options.alpha = 0.9;
  core::FedCross fedcross(config, MakeToyFederated(8, 40, 4, 41),
                          LinearFactory(4), options);
  for (int r = 0; r < rounds; ++r) fedcross.RunRound(r);
  return fedcross.GlobalParams();
}

TEST(ParallelDeterminismTest, EveryCodecSchemeIsThreadCountInvariant) {
  // The stochastic rounding draws come from the per-(round, client) codec
  // stream and the error-feedback residuals are indexed by client id, so a
  // lossy uplink must not reintroduce schedule sensitivity.
  FlThreadsGuard guard;
  for (comm::Scheme scheme :
       {comm::Scheme::kDelta, comm::Scheme::kInt8, comm::Scheme::kTopK,
        comm::Scheme::kInt8TopK}) {
    SCOPED_TRACE(comm::SchemeName(scheme));
    FlatParams sequential = RunFedCrossWithCodec(1, /*rounds=*/4, scheme);
    FlatParams parallel = RunFedCrossWithCodec(4, /*rounds=*/4, scheme);
    ExpectBitIdentical(sequential, parallel);
  }
}

TEST(ParallelDeterminismTest, DeltaCodecTrainsIdenticallyToIdentity) {
  // The delta codec is lossless, so the entire federation must be
  // bit-identical to the uncoded run -- only the wire bytes differ.
  FlThreadsGuard guard;
  FlatParams identity =
      RunFedCrossWithCodec(2, /*rounds=*/4, comm::Scheme::kIdentity);
  FlatParams delta =
      RunFedCrossWithCodec(2, /*rounds=*/4, comm::Scheme::kDelta);
  ExpectBitIdentical(identity, delta);
}

// --------------------------------------------------------------------------
// Plan-path determinism
// --------------------------------------------------------------------------

// Sync training is one fan-out over dispatch units. A unit runs its slots'
// fault draws and dispatch codec, their local training, then their DP,
// corruption and upload codec. Under the lockstep line (fl/plan_runner.h)
// a plan-path unit is a contiguous cohort of slots trained in lockstep;
// above it every slot is a unit of its own. These runs pin both schedules
// at 1, 2 and 4 threads, and against the layer path they must match bit
// for bit.
struct LineCase {
  const char* name;
  int dim;
  models::ModelFactory factory;
  bool lockstep;  // which side of the line the model sits on
};

std::vector<LineCase> ModelsAcrossTheLine() {
  return {{"linear", 4, LinearFactory(4), true},
          {"wide_mlp", testing::kWideMlpDim, testing::WideMlpFactory(),
           false}};
}

FlatParams RunFedCrossExec(int threads, ExecMode exec, AlgorithmConfig config,
                           const LineCase& model) {
  SetFlThreads(threads);
  config.train.exec = exec;
  core::FedCrossOptions options;
  options.alpha = 0.9;
  core::FedCross fedcross(config, MakeToyFederated(8, 40, model.dim, 41),
                          model.factory, options);
  for (int r = 0; r < 4; ++r) fedcross.RunRound(r);
  return fedcross.GlobalParams();
}

void ExpectPlanPathThreadCountInvariant(const AlgorithmConfig& config) {
  for (const LineCase& model : ModelsAcrossTheLine()) {
    SCOPED_TRACE(model.name);
    ASSERT_EQ(TrainsInLockstep(static_cast<std::int64_t>(
                  model.factory().ParamsToFlat().size())),
              model.lockstep);
    FlatParams one = RunFedCrossExec(1, ExecMode::kPlan, config, model);
    FlatParams two = RunFedCrossExec(2, ExecMode::kPlan, config, model);
    FlatParams four = RunFedCrossExec(4, ExecMode::kPlan, config, model);
    ExpectBitIdentical(one, two);
    ExpectBitIdentical(one, four);
    ExpectBitIdentical(one,
                       RunFedCrossExec(2, ExecMode::kLayers, config, model));
  }
}

TEST(ParallelDeterminismTest, PlanPathCodecsAreThreadCountInvariant) {
  FlThreadsGuard guard;
  for (comm::Scheme scheme :
       {comm::Scheme::kDelta, comm::Scheme::kInt8, comm::Scheme::kTopK,
        comm::Scheme::kInt8TopK}) {
    SCOPED_TRACE(comm::SchemeName(scheme));
    AlgorithmConfig config = ToyConfig();
    config.codec.scheme = scheme;
    config.codec.topk_fraction = 0.25;
    ExpectPlanPathThreadCountInvariant(config);
  }
}

TEST(ParallelDeterminismTest,
     PlanPathDpFaultsAndScreeningAreThreadCountInvariant) {
  // Dropout (ToyConfig), stragglers missing the round deadline, NaN
  // corruption caught by the finite screen, and DP clipping plus noise, all
  // under a lossy uplink with per-client residuals.
  FlThreadsGuard guard;
  AlgorithmConfig config = ToyConfig();
  config.faults.profile.straggler_prob = 0.25;
  config.faults.round_deadline = 4.0;
  config.dp.clip_norm = 0.5f;
  config.dp.noise_multiplier = 1.0f;
  config.faults.profile.corrupt_prob = 0.25;
  config.faults.profile.corruption = CorruptionKind::kNanInject;
  config.screening.check_finite = true;
  config.codec.scheme = comm::Scheme::kInt8TopK;
  config.codec.topk_fraction = 0.25;
  ExpectPlanPathThreadCountInvariant(config);
}

}  // namespace
}  // namespace fedcross::fl
