// Execution-plan runtime (nn/plan.h + fl/plan_runner.h): the grouped
// GEMM/conv primitives must be bit-identical to standalone calls on every
// dispatch tier, and --exec=plan must train byte-for-byte like
// --exec=layers for every algorithm, the whole model zoo (MLP/CNN/VGG,
// ResNet residual stacks, the Embedding+LSTM head), every --fl_threads
// value, and both round modes, while keeping the steady-state round free of
// tensor heap allocations and scratch growth. A topology the plan cannot
// compile is refused, not trained on the layer path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/fedcross.h"
#include "data/partition.h"
#include "data/synthetic_image.h"
#include "data/synthetic_text.h"
#include "fl/clusamp.h"
#include "fl/fedavg.h"
#include "fl/fedgen.h"
#include "fl/model_pool.h"
#include "fl/plan_runner.h"
#include "fl/scaffold.h"
#include "models/model_zoo.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/embedding.h"
#include "nn/flatten.h"
#include "nn/linear.h"
#include "nn/lstm.h"
#include "nn/plan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/gemm_kernels.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"
#include "util/rng.h"

namespace fedcross::fl {
namespace {

// ---------------------------------------------------------------------------
// GemmGrouped == Gemm, bitwise, on every available tier
// ---------------------------------------------------------------------------

struct GemmCase {
  bool trans_a, trans_b;
  int m, n, k;
};

void FillNormal(std::vector<float>& v, util::Rng& rng) {
  for (float& x : v) x = static_cast<float>(rng.Normal(0.0, 1.0));
}

void CheckGroupedMatchesStandalone(ops::SimdTier tier) {
  if (!ops::testing::ForceSimdTier(tier)) {
    GTEST_SKIP() << "tier " << ops::SimdTierName(tier)
                 << " unavailable on this CPU/build";
  }
  // Small shapes take the replica-interleaved grouped kernel; the large one
  // exceeds kSmallGemmOps and exercises the loop-over-blocked path.
  const GemmCase cases[] = {
      {false, false, 4, 6, 5},   {true, false, 4, 6, 5},
      {false, true, 4, 6, 5},    {true, true, 4, 6, 5},
      {false, false, 7, 33, 9},  {false, true, 20, 5, 17},
      {false, false, 24, 96, 64},  // blocked-kernel territory
      {true, false, 48, 48, 40},
  };
  const int kCount = 5;
  util::Rng rng(123);
  for (const GemmCase& c : cases) {
    int lda = c.trans_a ? c.m : c.k;
    int ldb = c.trans_b ? c.k : c.n;
    int ldc = c.n;
    std::vector<std::vector<float>> a(kCount), b(kCount), grouped(kCount),
        solo(kCount);
    std::vector<ops::GemmGroup> groups(kCount);
    for (int r = 0; r < kCount; ++r) {
      a[r].resize(static_cast<std::size_t>(c.m) * c.k);
      b[r].resize(static_cast<std::size_t>(c.k) * c.n);
      grouped[r].resize(static_cast<std::size_t>(c.m) * c.n);
      FillNormal(a[r], rng);
      FillNormal(b[r], rng);
      FillNormal(grouped[r], rng);  // beta != 0 exercises the C scaling
      solo[r] = grouped[r];
      groups[r] = {a[r].data(), b[r].data(), grouped[r].data()};
    }
    ops::GemmGrouped(c.trans_a, c.trans_b, c.m, c.n, c.k, 0.75f, lda, ldb,
                     0.5f, ldc, groups.data(), kCount);
    for (int r = 0; r < kCount; ++r) {
      ops::Gemm(c.trans_a, c.trans_b, c.m, c.n, c.k, 0.75f, a[r].data(), lda,
                b[r].data(), ldb, 0.5f, solo[r].data(), ldc);
      EXPECT_EQ(std::memcmp(grouped[r].data(), solo[r].data(),
                            grouped[r].size() * sizeof(float)),
                0)
          << ops::SimdTierName(tier) << " ta=" << c.trans_a
          << " tb=" << c.trans_b << " m=" << c.m << " n=" << c.n
          << " k=" << c.k << " replica " << r;
    }
  }
  ops::testing::ResetForcedSimdTier();
}

struct SimdTierGuard {
  ~SimdTierGuard() { ops::testing::ResetForcedSimdTier(); }
};

TEST(PlanGemmTest, GroupedBitIdenticalGenericTier) {
  SimdTierGuard guard;
  CheckGroupedMatchesStandalone(ops::SimdTier::kGeneric);
}

TEST(PlanGemmTest, GroupedBitIdenticalAvx2Tier) {
  SimdTierGuard guard;
  CheckGroupedMatchesStandalone(ops::SimdTier::kAvx2);
}

TEST(PlanGemmTest, GroupedBitIdenticalAvx512Tier) {
  SimdTierGuard guard;
  CheckGroupedMatchesStandalone(ops::SimdTier::kAvx512);
}

// ---------------------------------------------------------------------------
// ConvGrouped == per-image Gemm, bitwise, on every available tier
// ---------------------------------------------------------------------------

void CheckConvGroupedMatchesStandalone(ops::SimdTier tier) {
  if (!ops::testing::ForceSimdTier(tier)) {
    GTEST_SKIP() << "tier " << ops::SimdTierName(tier)
                 << " unavailable on this CPU/build";
  }
  struct ConvCase {
    int batch, out_channels, out_area, patch;
  };
  // Narrow-area cases (out_area <= 8 with small per-image ops) take the
  // replica-interleaved grouped kernel (with the weight interleave hoisted
  // across the image loop); wide-area cases fall back to the per-image
  // standalone loop even when ops are small, and the last case exceeds
  // kSmallGemmOps per image on top of that (blocked-kernel territory).
  // Every path must match the standalone chain bitwise.
  const ConvCase cases[] = {
      {2, 4, 4, 12},    // interleaved: tiny late-stage conv
      {3, 8, 8, 27},    // interleaved: area at the crossover boundary
      {1, 5, 7, 10},    // interleaved: odd area exercises lane tails
      {5, 16, 4, 144},  // interleaved: deep-channel 2x2 stage
      {5, 3, 36, 8},    // per-image loop: area too wide to interleave
      {2, 16, 64, 72},  // per-image loop: 16*64*72 ops/image on top
  };
  const int kCount = 5;
  util::Rng rng(321);
  for (const ConvCase& c : cases) {
    std::vector<std::vector<float>> weights(kCount), columns(kCount),
        grouped(kCount), solo(kCount);
    std::vector<ops::ConvGroup> groups(kCount);
    for (int r = 0; r < kCount; ++r) {
      weights[r].resize(static_cast<std::size_t>(c.out_channels) * c.patch);
      columns[r].resize(static_cast<std::size_t>(c.batch) * c.patch *
                        c.out_area);
      grouped[r].resize(static_cast<std::size_t>(c.batch) * c.out_channels *
                        c.out_area);
      FillNormal(weights[r], rng);
      FillNormal(columns[r], rng);
      FillNormal(grouped[r], rng);  // garbage: beta == 0 must overwrite it
      solo[r] = grouped[r];
      groups[r] = {weights[r].data(), columns[r].data(), grouped[r].data()};
    }
    ops::ConvGrouped(c.batch, c.out_channels, c.out_area, c.patch,
                     groups.data(), kCount);
    const std::int64_t col_size =
        static_cast<std::int64_t>(c.patch) * c.out_area;
    const std::int64_t out_size =
        static_cast<std::int64_t>(c.out_channels) * c.out_area;
    for (int r = 0; r < kCount; ++r) {
      for (int b = 0; b < c.batch; ++b) {
        ops::Gemm(false, false, c.out_channels, c.out_area, c.patch, 1.0f,
                  weights[r].data(), c.patch, columns[r].data() + b * col_size,
                  c.out_area, 0.0f, solo[r].data() + b * out_size, c.out_area);
      }
      EXPECT_EQ(std::memcmp(grouped[r].data(), solo[r].data(),
                            grouped[r].size() * sizeof(float)),
                0)
          << ops::SimdTierName(tier) << " batch=" << c.batch
          << " oc=" << c.out_channels << " area=" << c.out_area
          << " patch=" << c.patch << " replica " << r;
    }
  }
  ops::testing::ResetForcedSimdTier();
}

TEST(PlanConvTest, GroupedBitIdenticalGenericTier) {
  SimdTierGuard guard;
  CheckConvGroupedMatchesStandalone(ops::SimdTier::kGeneric);
}

TEST(PlanConvTest, GroupedBitIdenticalAvx2Tier) {
  SimdTierGuard guard;
  CheckConvGroupedMatchesStandalone(ops::SimdTier::kAvx2);
}

TEST(PlanConvTest, GroupedBitIdenticalAvx512Tier) {
  SimdTierGuard guard;
  CheckConvGroupedMatchesStandalone(ops::SimdTier::kAvx512);
}

// ---------------------------------------------------------------------------
// Batch-wide conv GEMMs: one call over all images == the per-image calls,
// bitwise, wherever BatchWideGemmExact says so, on every available tier
// ---------------------------------------------------------------------------

TEST(PlanConvTest, BatchWidePredicateHoldsOnlyWhereTheChainsAgree) {
  using ops::detail::BatchWideGemmExact;
  using ops::detail::kKc;
  using ops::detail::kSmallGemmOps;
  // Per-image blocked => batch-wide blocked: the same kKc-chunked chain,
  // however deep k is (fcbench cnn conv2: 32 x 16 x 400 per image).
  EXPECT_GT(32 * 16 * 400, kSmallGemmOps);
  EXPECT_TRUE(BatchWideGemmExact(32, 16, 400, 10));
  // Per-image small => batch-wide blocked: one chain on both sides while
  // k fits one blocked panel, including the boundary itself.
  EXPECT_TRUE(BatchWideGemmExact(8, 16, 100, 10));
  EXPECT_TRUE(BatchWideGemmExact(1, 16, kKc, 10));
  // Small on both sides: the same kernel, whatever k.
  EXPECT_TRUE(BatchWideGemmExact(1, 2, 300, 2));
  // Per-image small => batch-wide blocked with k > kKc: the blocked kernel
  // would split each chain into panels the per-image call never splits.
  EXPECT_FALSE(BatchWideGemmExact(4, 8, 500, 4));
  EXPECT_FALSE(BatchWideGemmExact(1, 16, kKc + 1, 10));
  // One part is always its own per-image call.
  EXPECT_TRUE(BatchWideGemmExact(4, 8, 500, 1));
}

struct WideCase {
  bool trans_a;  // the input-gradient GEMM reads W transposed
  int m, n, k, parts;
  const char* what;
};

// Runs op(A) * [B_0 | ... | B_{parts-1}] once and per part, from the same
// operands; true when every output byte agrees.
bool WideMatchesPerPart(const WideCase& c, util::Rng& rng) {
  const std::int64_t wide_n = static_cast<std::int64_t>(c.n) * c.parts;
  std::vector<float> a(static_cast<std::size_t>(c.m) * c.k);
  std::vector<float> b(static_cast<std::size_t>(c.k) * wide_n);
  std::vector<float> wide(static_cast<std::size_t>(c.m) * wide_n, 7.0f);
  FillNormal(a, rng);
  FillNormal(b, rng);
  const int lda = c.trans_a ? c.m : c.k;
  ops::Gemm(c.trans_a, false, c.m, static_cast<int>(wide_n), c.k, 1.0f,
            a.data(), lda, b.data(), static_cast<int>(wide_n), 0.0f,
            wide.data(), static_cast<int>(wide_n));
  bool same = true;
  std::vector<float> part_b(static_cast<std::size_t>(c.k) * c.n);
  std::vector<float> part_c(static_cast<std::size_t>(c.m) * c.n);
  for (int part = 0; part < c.parts; ++part) {
    // The per-image call reads a dense [k, n] block, as the layer path does.
    for (int p = 0; p < c.k; ++p) {
      std::memcpy(part_b.data() + static_cast<std::int64_t>(p) * c.n,
                  b.data() + p * wide_n + part * c.n, c.n * sizeof(float));
    }
    std::fill(part_c.begin(), part_c.end(), -3.0f);
    ops::Gemm(c.trans_a, false, c.m, c.n, c.k, 1.0f, a.data(), lda,
              part_b.data(), c.n, 0.0f, part_c.data(), c.n);
    for (int i = 0; i < c.m; ++i) {
      same = same &&
             std::memcmp(part_c.data() + static_cast<std::int64_t>(i) * c.n,
                         wide.data() + i * wide_n + part * c.n,
                         c.n * sizeof(float)) == 0;
    }
  }
  return same;
}

void CheckBatchWideMatchesPerImage(ops::SimdTier tier) {
  if (!ops::testing::ForceSimdTier(tier)) {
    GTEST_SKIP() << "tier " << ops::SimdTierName(tier)
                 << " unavailable on this CPU/build";
  }
  const WideCase exact[] = {
      {false, 8, 16, 100, 10, "per-image small, k <= kKc"},
      {false, 32, 16, 400, 10, "per-image blocked, k > kKc"},
      {false, 16, 64, 75, 10, "fcbench cnn conv1 forward"},
      {true, 400, 16, 32, 10, "fcbench cnn conv2 input gradient"},
      {true, 100, 16, 8, 5, "per-image small input gradient"},
      {false, 32, 4, 288, 5, "fcbench resnet stage-3 conv2 forward"},
  };
  util::Rng rng(77);
  for (const WideCase& c : exact) {
    ASSERT_TRUE(ops::detail::BatchWideGemmExact(c.m, c.n, c.k, c.parts))
        << c.what;
    EXPECT_TRUE(WideMatchesPerPart(c, rng))
        << ops::SimdTierName(tier) << ": " << c.what;
  }
  // Per-image small with k > kKc: the batch-wide call switches to the
  // panel-split blocked chain, so the predicate must keep it per image.
  // With 128 outputs of 500-term sums, some last bit differs.
  const WideCase split = {false, 4, 8, 500, 4, "per-image small, k > kKc"};
  EXPECT_FALSE(ops::detail::BatchWideGemmExact(split.m, split.n, split.k,
                                               split.parts));
  EXPECT_FALSE(WideMatchesPerPart(split, rng)) << ops::SimdTierName(tier);
  ops::testing::ResetForcedSimdTier();
}

TEST(PlanConvTest, BatchWideBitIdenticalGenericTier) {
  SimdTierGuard guard;
  CheckBatchWideMatchesPerImage(ops::SimdTier::kGeneric);
}

TEST(PlanConvTest, BatchWideBitIdenticalAvx2Tier) {
  SimdTierGuard guard;
  CheckBatchWideMatchesPerImage(ops::SimdTier::kAvx2);
}

TEST(PlanConvTest, BatchWideBitIdenticalAvx512Tier) {
  SimdTierGuard guard;
  CheckBatchWideMatchesPerImage(ops::SimdTier::kAvx512);
}

// A conv whose per-image forward GEMM is small with k > kKc (patch 288 on
// a 2x2 map): it must stay on the per-image path, while its input gradient
// (k = 8 output channels) still goes batch-wide.
models::ModelFactory DeepPatchConvFactory() {
  return []() {
    util::Rng rng(5);
    nn::Sequential model;
    model.Add(std::make_unique<nn::Conv2d>(3, 32, 3, 2, 1, rng));  // 8 -> 4
    model.Add(std::make_unique<nn::Relu>());
    model.Add(std::make_unique<nn::Conv2d>(32, 8, 3, 2, 1, rng));  // 4 -> 2
    model.Add(std::make_unique<nn::Relu>());
    model.Add(std::make_unique<nn::Flatten>());
    model.Add(std::make_unique<nn::Linear>(8 * 2 * 2, 4, rng));
    return model;
  };
}

std::vector<const nn::plan::Op*> ConvOps(const nn::plan::Program& program) {
  std::vector<const nn::plan::Op*> convs;
  for (const nn::plan::Op& op : program.ops) {
    if (op.kind == nn::plan::OpKind::kConv) convs.push_back(&op);
  }
  return convs;
}

TEST(PlanConvTest, CompiledConvStepsPickTheBatchWidePathByShape) {
  models::CnnConfig cnn;  // the fcbench cnn-sync geometry
  cnn.height = cnn.width = 8;
  nn::Sequential model = models::MakeCnn(cnn)();
  std::optional<nn::plan::Program> ten =
      nn::plan::Program::Compile(model, {10, 3, 8, 8});
  ASSERT_TRUE(ten.has_value());
  std::vector<const nn::plan::Op*> convs = ConvOps(*ten);
  ASSERT_EQ(convs.size(), 2u);
  for (const nn::plan::Op* op : convs) {
    EXPECT_TRUE(op->wide_y);
    EXPECT_EQ(op->wide_dx, !op->skip_dx);
    EXPECT_EQ(op->s1.space, nn::plan::Ref::Space::kNone);  // no dColumns slab
  }
  // One image has nothing to batch.
  std::optional<nn::plan::Program> one =
      nn::plan::Program::Compile(model, {1, 3, 8, 8});
  ASSERT_TRUE(one.has_value());
  for (const nn::plan::Op* op : ConvOps(*one)) {
    EXPECT_FALSE(op->wide_y);
    EXPECT_FALSE(op->wide_dx);
  }

  nn::Sequential deep = DeepPatchConvFactory()();
  std::optional<nn::plan::Program> mixed =
      nn::plan::Program::Compile(deep, {10, 3, 8, 8});
  ASSERT_TRUE(mixed.has_value());
  convs = ConvOps(*mixed);
  ASSERT_EQ(convs.size(), 2u);
  EXPECT_TRUE(convs[0]->wide_y);
  EXPECT_FALSE(convs[1]->wide_y);  // 8 x 4 x 288 per image: small, k > kKc
  EXPECT_TRUE(convs[1]->wide_dx);
}

// ---------------------------------------------------------------------------
// Shared fixtures
// ---------------------------------------------------------------------------

// Three-layer Linear/ReLU MLP.
models::ModelFactory MlpFactory(int dim, int classes) {
  return [dim, classes]() {
    util::Rng rng(11);
    nn::Sequential model;
    model.Add(std::make_unique<nn::Linear>(dim, 16, rng));
    model.Add(std::make_unique<nn::Relu>());
    model.Add(std::make_unique<nn::Linear>(16, 12, rng));
    model.Add(std::make_unique<nn::Relu>());
    model.Add(std::make_unique<nn::Linear>(12, classes, rng));
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
  for (int i = 0; i < 30; ++i) {
    gen_example(i % 2, features);
    labels.push_back(i % 2);
  }
  federated.test = std::make_shared<data::InMemoryDataset>(
      Tensor::Shape{dim}, std::move(features), std::move(labels), 2);
  return federated;
}

data::FederatedDataset MakeImageFederated(int num_clients,
                                          std::uint64_t seed) {
  data::SyntheticImageOptions image_options;
  image_options.num_classes = 4;
  image_options.height = image_options.width = 8;
  image_options.train_per_class = 20;
  image_options.test_per_class = 8;
  image_options.seed = seed;
  data::ImageCorpus corpus = data::MakeSyntheticImageCorpus(image_options);
  util::Rng rng(seed + 1);
  data::FederatedDataset federated;
  federated.num_classes = 4;
  federated.client_train = data::MakeClientShards(
      corpus.train, data::IidPartition(*corpus.train, num_clients, rng));
  federated.test = corpus.test;
  return federated;
}

AlgorithmConfig ToyConfig(ExecMode exec) {
  AlgorithmConfig config;
  config.clients_per_round = 4;
  config.train.local_epochs = 2;
  // per_client=35 below is not a multiple of 10, so every epoch ends in a
  // short batch and the lockstep runner must group two batch geometries.
  config.train.batch_size = 10;
  config.train.lr = 0.05f;
  config.train.exec = exec;
  config.seed = 17;
  // Nonzero dropout exercises the Prepare/Finish echo path in plan mode.
  config.faults.profile.dropout_prob = 0.2;
  return config;
}

struct FlThreadsGuard {
  ~FlThreadsGuard() { SetFlThreads(1); }
};

void ExpectBitIdentical(const FlatParams& a, const FlatParams& b,
                        const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (a.empty()) return;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << what;
}

std::unique_ptr<FlAlgorithm> MakeAlgorithm(const std::string& name,
                                           ExecMode exec) {
  AlgorithmConfig config = ToyConfig(exec);
  data::FederatedDataset data = MakeToyFederated(8, 35, 6, 41);
  models::ModelFactory factory = MlpFactory(6, 2);
  if (name == "fedavg") {
    return std::make_unique<FedAvg>(config, std::move(data), factory);
  }
  if (name == "fedprox") {
    return std::make_unique<FedProx>(config, std::move(data), factory, 0.1f);
  }
  if (name == "scaffold") {
    return std::make_unique<Scaffold>(config, std::move(data), factory);
  }
  if (name == "clusamp") {
    return std::make_unique<CluSamp>(config, std::move(data), factory);
  }
  if (name == "fedgen") {
    return std::make_unique<FedGen>(config, std::move(data), factory);
  }
  core::FedCrossOptions options;
  options.alpha = 0.9;
  return std::make_unique<core::FedCross>(config, std::move(data), factory,
                                          options);
}

FlatParams RunToy(const std::string& algo, ExecMode exec, int threads,
                  int rounds) {
  SetFlThreads(threads);
  std::unique_ptr<FlAlgorithm> server = MakeAlgorithm(algo, exec);
  for (int r = 0; r < rounds; ++r) server->RunRound(r);
  return server->GlobalParams();
}

// ---------------------------------------------------------------------------
// plan == layers, for all six algorithms, at fl_threads 1 and 4
// ---------------------------------------------------------------------------

TEST(PlanExecutionTest, AllAlgorithmsBitIdenticalAcrossExecAndThreads) {
  FlThreadsGuard guard;
  const char* algorithms[] = {"fedavg",  "fedprox", "scaffold",
                              "clusamp", "fedgen",  "fedcross"};
  for (const char* algo : algorithms) {
    FlatParams layers1 = RunToy(algo, ExecMode::kLayers, 1, 3);
    FlatParams plan1 = RunToy(algo, ExecMode::kPlan, 1, 3);
    FlatParams plan4 = RunToy(algo, ExecMode::kPlan, 4, 3);
    ExpectBitIdentical(layers1, plan1, std::string(algo) + ": plan@1");
    ExpectBitIdentical(layers1, plan4, std::string(algo) + ": plan@4");
  }
}

// ---------------------------------------------------------------------------
// Lockstep cohorts: one per thread the fan-out runs on
// ---------------------------------------------------------------------------

struct TracingGuard {
  ~TracingGuard() {
    obs::SetTracingEnabled(false);
    obs::TraceRecorder::Global().Clear();
  }
};

struct CohortRun {
  FlatParams params;
  std::vector<int> cohorts;  // job count of each plan.lockstep span, sorted
};

// One traced FedCross round with K middleware models at the given
// --fl_threads, on `dim`-feature toy data. Every slot trains (no client
// dropout), so on the plan path the cohorts partition all K jobs.
CohortRun RunTracedFedCrossRound(int k, int threads, int dim = 6,
                                 const models::ModelFactory& factory =
                                     MlpFactory(6, 2),
                                 ExecMode exec = ExecMode::kPlan) {
  SetFlThreads(threads);
  AlgorithmConfig config = ToyConfig(exec);
  config.clients_per_round = k;
  config.faults.profile.dropout_prob = 0.0;
  core::FedCrossOptions options;
  options.alpha = 0.9;
  core::FedCross fedcross(config, MakeToyFederated(12, 35, dim, 41), factory,
                          options);
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.Clear();
  obs::SetTracingEnabled(true);
  fedcross.RunRound(0);
  obs::SetTracingEnabled(false);

  CohortRun run;
  run.params = fedcross.GlobalParams();
  const std::string path = ::testing::TempDir() + "plan_cohort_trace.json";
  EXPECT_TRUE(recorder.WriteJson(path));
  recorder.Clear();
  std::ifstream in(path);
  static const char kArg[] = "\"args\":{\"v\":";
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"name\":\"plan.lockstep\"") == std::string::npos) {
      continue;
    }
    std::size_t at = line.find(kArg);
    EXPECT_NE(at, std::string::npos) << line;
    if (at == std::string::npos) continue;
    run.cohorts.push_back(std::atoi(line.c_str() + at + sizeof(kArg) - 1));
  }
  std::remove(path.c_str());
  std::sort(run.cohorts.begin(), run.cohorts.end());
  return run;
}

TEST(PlanExecutionTest, LockstepCohortsSpanTheFanOutWidth) {
  // --fl_threads N runs each fan-out on N workers plus the caller, so the
  // plan path cuts the jobs of a model under the lockstep line into
  // min(K, N + 1) contiguous cohorts. Cohort boundaries only change how
  // many replicas share a grouped kernel call, never the bits.
  FlThreadsGuard guard;
  TracingGuard tracing;
  ASSERT_TRUE(TrainsInLockstep(
      static_cast<std::int64_t>(MlpFactory(6, 2)().ParamsToFlat().size())));
  CohortRun k10_one = RunTracedFedCrossRound(10, 1);
  CohortRun k10_two = RunTracedFedCrossRound(10, 2);
  EXPECT_EQ(k10_one.cohorts, (std::vector<int>{10}));
  EXPECT_EQ(k10_two.cohorts, (std::vector<int>{3, 3, 4}));
  ExpectBitIdentical(k10_one.params, k10_two.params, "K=10: 1 vs 2 workers");

  CohortRun k2_one = RunTracedFedCrossRound(2, 1);
  CohortRun k2_four = RunTracedFedCrossRound(2, 4);
  EXPECT_EQ(k2_one.cohorts, (std::vector<int>{2}));
  EXPECT_EQ(k2_four.cohorts, (std::vector<int>{1, 1}));
  ExpectBitIdentical(k2_one.params, k2_four.params, "K=2: 1 vs 4 workers");

  // Above the line every job trains solo, at every thread count, with the
  // layer path's bits.
  using testing::kWideMlpDim;
  using testing::WideMlpFactory;
  ASSERT_FALSE(TrainsInLockstep(
      static_cast<std::int64_t>(WideMlpFactory()().ParamsToFlat().size())));
  CohortRun wide_layers = RunTracedFedCrossRound(4, 1, kWideMlpDim,
                                                 WideMlpFactory(),
                                                 ExecMode::kLayers);
  EXPECT_TRUE(wide_layers.cohorts.empty());
  for (int threads : {1, 2, 4}) {
    CohortRun wide =
        RunTracedFedCrossRound(4, threads, kWideMlpDim, WideMlpFactory());
    EXPECT_EQ(wide.cohorts, (std::vector<int>{1, 1, 1, 1})) << threads;
    ExpectBitIdentical(wide_layers.params, wide.params,
                       "wide MLP: layers vs plan at " +
                           std::to_string(threads) + " workers");
  }
}

// ---------------------------------------------------------------------------
// plan == layers across the model zoo — all topologies lower natively, so
// every run below goes through the lockstep executor with zero fallbacks
// ---------------------------------------------------------------------------

FlatParams RunImageFedAvg(const models::ModelFactory& factory, ExecMode exec,
                          int rounds) {
  AlgorithmConfig config;
  config.clients_per_round = 3;
  config.train.local_epochs = 1;
  config.train.batch_size = 10;
  config.train.lr = 0.05f;
  config.train.exec = exec;
  config.seed = 23;
  FedAvg server(config, MakeImageFederated(4, 9), factory);
  for (int r = 0; r < rounds; ++r) server.RunRound(r);
  return server.GlobalParams();
}

TEST(PlanExecutionTest, ModelZooBitIdentical) {
  FlThreadsGuard guard;
  SetFlThreads(1);

  models::CnnConfig cnn;
  cnn.height = cnn.width = 8;
  cnn.num_classes = 4;
  cnn.conv1_channels = 4;
  cnn.conv2_channels = 8;
  cnn.fc_dim = 16;

  models::VggConfig vgg;
  vgg.height = vgg.width = 8;
  vgg.num_classes = 4;
  vgg.base_width = 4;
  vgg.fc_dim = 16;

  models::ResNetConfig resnet;  // residual blocks: skip-branch lowering
  resnet.height = resnet.width = 8;
  resnet.num_classes = 4;
  resnet.base_width = 4;

  struct ZooCase {
    const char* name;
    models::ModelFactory factory;
  };
  ZooCase zoo[] = {{"cnn", models::MakeCnn(cnn)},
                   {"vgg", models::MakeVgg(vgg)},
                   {"resnet", models::MakeResNet(resnet)}};
  for (ZooCase& z : zoo) {
    FlatParams layers = RunImageFedAvg(z.factory, ExecMode::kLayers, 2);
    FlatParams plan = RunImageFedAvg(z.factory, ExecMode::kPlan, 2);
    ExpectBitIdentical(layers, plan, z.name);
  }
}

// ---------------------------------------------------------------------------
// ResNet and LSTM: plan == layers across fl_threads and both round modes
// ---------------------------------------------------------------------------

models::ResNetConfig SmallResNet() {
  models::ResNetConfig resnet;
  resnet.height = resnet.width = 8;
  resnet.num_classes = 4;
  resnet.base_width = 4;
  return resnet;
}

models::LstmConfig SmallLstm() {
  models::LstmConfig lstm;  // vocab 32, seq 16
  lstm.embed_dim = 8;
  lstm.hidden_dim = 12;
  return lstm;
}

data::FederatedDataset MakeTextFederated(int num_clients, std::uint64_t seed) {
  data::SyntheticCharLmOptions text;
  text.num_clients = num_clients;
  text.mean_samples_per_client = 30;
  text.test_samples = 40;
  text.seed = seed;
  return data::MakeSyntheticCharLm(text);
}

FlatParams RunFedAvgMode(const models::ModelFactory& factory,
                         data::FederatedDataset data, ExecMode exec,
                         int threads, RoundMode mode, int rounds) {
  SetFlThreads(threads);
  AlgorithmConfig config;
  config.clients_per_round = 3;
  config.train.local_epochs = 1;
  config.train.batch_size = 10;
  config.train.lr = 0.05f;
  config.train.exec = exec;
  config.seed = 23;
  config.async.mode = mode;
  config.async.buffer_size = 2;
  FedAvg server(config, std::move(data), factory);
  server.Run(rounds, /*eval_every=*/rounds);
  return server.GlobalParams();
}

void CheckThreadAndModeInvariance(const models::ModelFactory& factory,
                                  const data::FederatedDataset& data,
                                  const std::string& what) {
  FlThreadsGuard guard;
  for (RoundMode mode : {RoundMode::kSync, RoundMode::kAsync}) {
    std::string tag = std::string(what) + "/" + RoundModeName(mode);
    FlatParams layers1 =
        RunFedAvgMode(factory, data, ExecMode::kLayers, 1, mode, 2);
    FlatParams plan1 =
        RunFedAvgMode(factory, data, ExecMode::kPlan, 1, mode, 2);
    FlatParams plan4 =
        RunFedAvgMode(factory, data, ExecMode::kPlan, 4, mode, 2);
    ExpectBitIdentical(layers1, plan1, tag + ": plan@1");
    ExpectBitIdentical(layers1, plan4, tag + ": plan@4");
  }
}

TEST(PlanExecutionTest, ResNetBitIdenticalAcrossThreadsAndRoundModes) {
  CheckThreadAndModeInvariance(models::MakeResNet(SmallResNet()),
                               MakeImageFederated(4, 9), "resnet");
}

TEST(PlanExecutionTest, LstmBitIdenticalAcrossThreadsAndRoundModes) {
  CheckThreadAndModeInvariance(models::MakeLstm(SmallLstm()),
                               MakeTextFederated(4, 13), "lstm");
}

// ---------------------------------------------------------------------------
// Batch-wide conv steps across batch geometries: plan == layers
// ---------------------------------------------------------------------------

FlatParams RunConvFedAvg(const models::ModelFactory& factory, ExecMode exec,
                         int batch_size) {
  AlgorithmConfig config;
  config.clients_per_round = 3;
  config.train.local_epochs = 1;
  config.train.batch_size = batch_size;
  config.train.lr = 0.05f;
  config.train.exec = exec;
  config.seed = 23;
  FedAvg server(config, MakeImageFederated(4, 9), factory);
  for (int r = 0; r < 2; ++r) server.RunRound(r);
  return server.GlobalParams();
}

TEST(PlanConvTest, BatchWidePathBitIdenticalAcrossBatchGeometries) {
  FlThreadsGuard threads;
  SetFlThreads(1);  // one cohort of 3 replicas: the per-image path fuses
  models::CnnConfig cnn;
  cnn.height = cnn.width = 8;
  cnn.num_classes = 4;
  cnn.conv1_channels = 4;  // conv2: 8 x 16 x 100 per image, small
  cnn.conv2_channels = 8;
  cnn.fc_dim = 16;
  struct Model {
    const char* name;
    models::ModelFactory factory;
  };
  const Model zoo[] = {{"cnn", models::MakeCnn(cnn)},
                       {"resnet", models::MakeResNet(SmallResNet())},
                       {"deep-patch", DeepPatchConvFactory()}};
  // 20 examples per client: batches 1, 5 and 10 tile them; 7 leaves a
  // ragged 6-image tail every epoch.
  for (const Model& model : zoo) {
    for (int batch : {1, 5, 10, 7}) {
      const std::string tag =
          std::string(model.name) + " batch " + std::to_string(batch);
      FlatParams layers =
          RunConvFedAvg(model.factory, ExecMode::kLayers, batch);
      FlatParams plan = RunConvFedAvg(model.factory, ExecMode::kPlan, batch);
      ExpectBitIdentical(layers, plan, tag + ": plan vs layers");
    }
  }
}

// ---------------------------------------------------------------------------
// Support matrix + program properties
// ---------------------------------------------------------------------------

// A layer class the plan runtime has no lowering for.
class UnloweredIdentity : public nn::Layer {
 public:
  const Tensor& Forward(const Tensor& input) override { return input; }
  const Tensor& Backward(const Tensor& grad_output) override {
    return grad_output;
  }
  std::string Name() const override { return "UnloweredIdentity"; }
};

models::ModelFactory UnloweredConvFactory() {
  return []() {
    util::Rng rng(3);
    nn::Sequential model;
    model.Add(std::make_unique<nn::Conv2d>(3, 4, 3, 1, 1, rng));
    model.Add(std::make_unique<UnloweredIdentity>());
    model.Add(std::make_unique<nn::Relu>());
    model.Add(std::make_unique<nn::Flatten>());
    model.Add(std::make_unique<nn::Linear>(4 * 8 * 8, 4, rng));
    return model;
  };
}

// An embedding below another op: the layer path stops backprop at it, which
// the plan cannot reproduce there, so it refuses the topology.
models::ModelFactory MidNetworkEmbeddingFactory() {
  return []() {
    util::Rng rng(5);
    nn::Sequential model;
    model.Add(std::make_unique<nn::Relu>());
    model.Add(std::make_unique<nn::Embedding>(32, 8, rng));
    model.Add(std::make_unique<nn::Lstm>(8, 8, rng));
    model.Add(std::make_unique<nn::Linear>(8, 4, rng));
    return model;
  };
}

bool Compiles(const models::ModelFactory& factory,
              const Tensor::Shape& input_shape) {
  nn::Sequential model = factory();
  return nn::plan::Program::Compile(model, input_shape).has_value();
}

TEST(PlanCompileTest, SupportMatrixMatchesTopologies) {
  models::CnnConfig cnn;
  cnn.height = cnn.width = 8;
  cnn.num_classes = 4;
  models::VggConfig vgg;
  vgg.height = vgg.width = 8;
  vgg.num_classes = 4;
  models::ResNetConfig resnet;
  resnet.height = resnet.width = 8;
  resnet.num_classes = 4;
  models::LstmConfig lstm;

  EXPECT_TRUE(Compiles(MlpFactory(6, 2), {4, 6}));
  EXPECT_TRUE(Compiles(models::MakeCnn(cnn), {2, 3, 8, 8}));
  EXPECT_TRUE(Compiles(models::MakeVgg(vgg), {2, 3, 8, 8}));
  EXPECT_TRUE(Compiles(models::MakeResNet(resnet), {2, 3, 8, 8}));
  EXPECT_TRUE(Compiles(models::MakeLstm(lstm), {2, 16}));
  EXPECT_FALSE(Compiles(UnloweredConvFactory(), {2, 3, 8, 8}));
  EXPECT_FALSE(Compiles(MidNetworkEmbeddingFactory(), {2, 16}));
}

// --exec plan refuses a topology it cannot compile instead of training it
// on the layer path; --exec layers still trains it.
TEST(PlanCompileDeathTest, PlanTrainingStopsOnAnUncompilableTopology) {
  // Threadsafe style re-executes the test binary for the child, so no
  // thread-pool state is forked (the TSan job runs this suite).
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  FlThreadsGuard guard;
  SetFlThreads(1);
  auto run_round = [](ExecMode exec) {
    AlgorithmConfig config;
    config.clients_per_round = 2;
    config.train.local_epochs = 1;
    config.train.batch_size = 10;
    config.train.exec = exec;
    FedAvg server(config, MakeImageFederated(4, 9), UnloweredConvFactory());
    server.RunRound(0);
    return server.GlobalParams();
  };
  EXPECT_FALSE(run_round(ExecMode::kLayers).empty());
  EXPECT_DEATH(run_round(ExecMode::kPlan),
               "cannot compile this model topology.*--exec layers");
}

TEST(PlanCompileTest, FirstOpSkipsInputGradientAndProgramsAreCached) {
  models::ModelFactory factory = MlpFactory(6, 2);
  nn::Sequential model = factory();
  std::optional<nn::plan::Program> program =
      nn::plan::Program::Compile(model, {10, 6});
  ASSERT_TRUE(program.has_value());
  ASSERT_FALSE(program->ops.empty());
  // Nothing consumes the gradient of the pipeline input: the first linear
  // must skip its dX GEMM — that skip is part of plan mode's speedup.
  EXPECT_TRUE(program->ops.front().skip_dx);
  EXPECT_FALSE(program->ops.back().skip_dx);
  EXPECT_EQ(program->classes, 2);
  EXPECT_GT(program->arena_floats, 0);

  ModelPool pool(factory);
  ModelPool::Lease lease = pool.Acquire();
  const nn::plan::Program* p1 = pool.ProgramFor({10, 6}, lease->model);
  const nn::plan::Program* p2 = pool.ProgramFor({10, 6}, lease->model);
  const nn::plan::Program* p3 = pool.ProgramFor({5, 6}, lease->model);
  ASSERT_NE(p1, nullptr);
  EXPECT_EQ(p1, p2);      // cached: same shape, same program object
  ASSERT_NE(p3, nullptr);
  EXPECT_NE(p1, p3);      // the epoch-tail short batch compiles its own
  EXPECT_EQ(p3->batch, 5);

  models::ResNetConfig resnet;
  resnet.height = resnet.width = 8;
  resnet.num_classes = 4;
  ModelPool resnet_pool(models::MakeResNet(resnet));
  ModelPool::Lease resnet_lease = resnet_pool.Acquire();
  const nn::plan::Program* rp =
      resnet_pool.ProgramFor({2, 3, 8, 8}, resnet_lease->model);
  ASSERT_NE(rp, nullptr);  // residual stacks compile natively now
  // The compiled residual graph carries skip-join steps.
  bool has_add = false;
  for (const nn::plan::Op& op : rp->ops) {
    if (op.kind == nn::plan::OpKind::kAdd) has_add = true;
  }
  EXPECT_TRUE(has_add);
}

// ---------------------------------------------------------------------------
// Steady-state allocation freedom
// ---------------------------------------------------------------------------

TEST(PlanExecutionTest, SteadyStatePlanTrainingAllocatesNoTensors) {
  const int dim = 6;
  auto dataset = fedcross::testing::MakeToyDataset(35, dim, 0.4f, 3);
  FlClient client(0, dataset);
  models::ModelFactory factory = MlpFactory(dim, 2);
  ModelPool pool(factory);
  FlatParams init = factory().ParamsToFlat();

  ClientTrainSpec spec;
  spec.options.local_epochs = 2;
  spec.options.batch_size = 10;  // 70 examples: short tail batch every epoch
  spec.options.lr = 0.05f;

  LocalTrainResult result;
  util::Rng rng(0);
  const PlanJob job{&client, &init, &spec, &rng, &result};
  for (int round = 0; round < 2; ++round) {
    rng = util::Rng(100 + round);
    RunPlanJobs(pool, &job, 1);
  }

  Tensor::ResetHeapAllocations();
  for (int round = 2; round < 5; ++round) {
    rng = util::Rng(100 + round);
    RunPlanJobs(pool, &job, 1);
  }
  EXPECT_EQ(Tensor::HeapAllocations(), 0u);
  EXPECT_EQ(pool.replicas_created(), 1u);
}

// The conv plans (batch-wide and grouped conv steps, residual skip refs)
// must also hold the allocation-free line once warm, and the executor's
// thread-local scratch (grouped instance tables, batch-wide GEMM operands,
// staging slots) must stop growing: per-op scratch is size-asserted, so any
// regrowth is a bug.
void CheckSteadyStateConvPlan(const models::ModelFactory& factory) {
  data::FederatedDataset federated = MakeImageFederated(2, 5);
  FlClient client(0, federated.client_train[0]);
  ModelPool pool(factory);
  FlatParams init = factory().ParamsToFlat();

  ClientTrainSpec spec;
  spec.options.local_epochs = 2;
  spec.options.batch_size = 7;  // 40 examples: short tail batch every epoch
  spec.options.lr = 0.05f;

  LocalTrainResult result;
  util::Rng rng(0);
  const PlanJob job{&client, &init, &spec, &rng, &result};
  for (int round = 0; round < 2; ++round) {
    rng = util::Rng(200 + round);
    RunPlanJobs(pool, &job, 1);
  }

  Tensor::ResetHeapAllocations();
  const std::int64_t scratch_before =
      nn::plan::testing::ScratchReallocEvents();
  for (int round = 2; round < 5; ++round) {
    rng = util::Rng(200 + round);
    RunPlanJobs(pool, &job, 1);
  }
  EXPECT_EQ(Tensor::HeapAllocations(), 0u);
  EXPECT_EQ(nn::plan::testing::ScratchReallocEvents(), scratch_before);
  EXPECT_EQ(pool.replicas_created(), 1u);
}

TEST(PlanExecutionTest, SteadyStateResNetPlanIsAllocationAndScratchFree) {
  CheckSteadyStateConvPlan(models::MakeResNet(SmallResNet()));
}

TEST(PlanExecutionTest, SteadyStateCnnPlanIsAllocationAndScratchFree) {
  models::CnnConfig cnn;
  cnn.height = cnn.width = 8;
  cnn.num_classes = 4;
  CheckSteadyStateConvPlan(models::MakeCnn(cnn));
}

// ---------------------------------------------------------------------------
// Gradient check of the lowered residual / LSTM steps: the plan executor
// produces both the analytic gradient and the perturbed-loss evaluations
// ---------------------------------------------------------------------------

std::vector<int> CyclicLabels(int batch, int classes) {
  std::vector<int> labels(batch);
  for (int b = 0; b < batch; ++b) labels[b] = b % classes;
  return labels;
}

// Directional-derivative check (see tests/test_util.h): perturb each
// parameter tensor along its own plan-computed gradient and compare the
// numeric derivative of the plan's loss against ||grad_p||.
double PlanGradCheckWorstRel(const models::ModelFactory& factory,
                             const Tensor& input,
                             const std::vector<int>& labels) {
  nn::Sequential model = factory();
  std::optional<nn::plan::Program> program =
      nn::plan::Program::Compile(model, input.shape());
  if (!program.has_value()) {
    ADD_FAILURE() << "model does not compile to a plan";
    return 1e9;
  }
  nn::plan::PlanState state;
  state.Bind(*program, model);
  nn::plan::PlanState* states[] = {&state};
  nn::plan::BatchRef batch{input.data(), labels.data()};
  float loss = 0.0f;
  int correct = 0;
  auto step = [&]() {
    nn::plan::ExecuteStep(*program, states, &batch, 1, &loss, &correct);
    return static_cast<double>(loss);
  };

  model.ZeroGrad();
  step();
  std::vector<nn::Param*> params = model.Params();
  std::vector<Tensor> grads;
  grads.reserve(params.size());
  for (nn::Param* p : params) grads.push_back(p->grad);

  const float eps = 1e-4f;
  double worst_rel = 0.0;
  for (std::size_t i = 0; i < params.size(); ++i) {
    double norm = std::sqrt(grads[i].SquaredL2Norm());
    if (norm < 1e-2) continue;  // below float32 loss resolution
    Tensor original = params[i]->value;
    params[i]->value.Axpy(eps / static_cast<float>(norm), grads[i]);
    double loss_plus = step();
    params[i]->value = original;
    params[i]->value.Axpy(-eps / static_cast<float>(norm), grads[i]);
    double loss_minus = step();
    params[i]->value = original;
    double numeric = (loss_plus - loss_minus) / (2.0 * eps);
    double rel = std::abs(numeric - norm) / std::max(norm, 1e-4);
    worst_rel = std::max(worst_rel, rel);
  }
  return worst_rel;
}

constexpr double kGradTol = 0.08;  // float32 central differences are noisy

TEST(PlanGradCheckTest, ResNetLoweredSteps) {
  util::Rng rng(7);
  Tensor input = Tensor::RandomNormal({2, 3, 8, 8}, rng);
  double err = PlanGradCheckWorstRel(models::MakeResNet(SmallResNet()), input,
                                     CyclicLabels(2, 4));
  EXPECT_LT(err, kGradTol);
}

TEST(PlanGradCheckTest, LstmLoweredSteps) {
  util::Rng rng(8);
  models::LstmConfig lstm = SmallLstm();
  Tensor input({3, 16});
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    input.data()[i] = static_cast<float>(
        static_cast<int>(rng.Uniform() * lstm.vocab_size) % lstm.vocab_size);
  }
  double err = PlanGradCheckWorstRel(models::MakeLstm(lstm), input,
                                     CyclicLabels(3, lstm.num_classes));
  EXPECT_LT(err, kGradTol);
}

// ---------------------------------------------------------------------------
// Checkpoints cross exec modes (ExecMode is not fingerprinted)
// ---------------------------------------------------------------------------

TEST(PlanExecutionTest, CheckpointResumesAcrossExecModes) {
  FlThreadsGuard guard;
  SetFlThreads(1);
  const char* path = "plan_exec_mode.ckpt";

  models::ModelFactory factory = MlpFactory(6, 2);
  FedAvg full(ToyConfig(ExecMode::kLayers), MakeToyFederated(8, 35, 6, 41),
              factory);
  full.Run(4, 1);

  FedAvg first(ToyConfig(ExecMode::kLayers), MakeToyFederated(8, 35, 6, 41),
               factory);
  first.Run(2, 1);
  ASSERT_TRUE(first.SaveCheckpoint(path).ok());

  FedAvg resumed(ToyConfig(ExecMode::kPlan), MakeToyFederated(8, 35, 6, 41),
                 factory);
  ASSERT_TRUE(resumed.LoadCheckpoint(path).ok());
  resumed.Run(4, 1);

  ExpectBitIdentical(full.GlobalParams(), resumed.GlobalParams(),
                     "layers run vs layers->plan resume");
  std::remove(path);
}

}  // namespace
}  // namespace fedcross::fl
