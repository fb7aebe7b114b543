// Micro-benchmarks (google-benchmark) for the numeric substrate and the
// FedCross server-side primitives: GEMM, conv forward/backward, flat
// parameter round-trips, cross-aggregation and cosine similarity vs model
// size. These quantify the design decisions called out in DESIGN.md §4
// (flat parameter views make CrossAggr / similarity O(P) passes).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "comm/wire.h"
#include "core/fedcross.h"
#include "data/partition.h"
#include "data/synthetic_image.h"
#include "data/synthetic_text.h"
#include "fl/evaluator.h"
#include "fl/fedavg.h"
#include "fl/model_pool.h"
#include "models/model_zoo.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/kernels.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "privacy/dp.h"
#include "privacy/masking.h"
#include "tensor/gemm_kernels.h"
#include "tensor/tensor_ops.h"
#include "util/mem_stats.h"
#include "util/rng.h"

namespace fedcross {
namespace {

void BM_Gemm(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  util::Rng rng(1);
  Tensor a = Tensor::RandomNormal({n, n}, rng);
  Tensor b = Tensor::RandomNormal({n, n}, rng);
  Tensor c({n, n});
  for (auto _ : state) {
    ops::Gemm(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f,
              c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// Cross-replica batched GEMM (the plan executor's fusion primitive) vs the
// same small per-replica shapes dispatched one Gemm call at a time. The
// shape is deliberately under the grouped-kernel threshold so the
// replica-interleaved microkernel engages; the arg is the replica count.
void RunSmallGemmLoop(benchmark::State& state, bool grouped) {
  const int count = static_cast<int>(state.range(0));
  constexpr int m = 20, n = 32, k = 16;
  util::Rng rng(3);
  std::vector<std::vector<float>> a(count), b(count), c(count);
  std::vector<ops::GemmGroup> groups(count);
  for (int r = 0; r < count; ++r) {
    a[r].resize(m * k);
    b[r].resize(k * n);
    c[r].resize(m * n);
    for (float& x : a[r]) x = static_cast<float>(rng.Normal(0.0, 1.0));
    for (float& x : b[r]) x = static_cast<float>(rng.Normal(0.0, 1.0));
    groups[r] = {a[r].data(), b[r].data(), c[r].data()};
  }
  for (auto _ : state) {
    if (grouped) {
      ops::GemmGrouped(false, false, m, n, k, 1.0f, k, n, 0.0f, n,
                       groups.data(), count);
    } else {
      for (int r = 0; r < count; ++r) {
        ops::Gemm(false, false, m, n, k, 1.0f, a[r].data(), k, b[r].data(), n,
                  0.0f, c[r].data(), n);
      }
    }
    benchmark::DoNotOptimize(c[0][0]);
  }
  state.SetItemsProcessed(state.iterations() * count);
}

void BM_GemmSmallLooped(benchmark::State& state) {
  RunSmallGemmLoop(state, false);
}
BENCHMARK(BM_GemmSmallLooped)->Arg(5)->Arg(10)->Arg(20);

void BM_GemmGrouped(benchmark::State& state) { RunSmallGemmLoop(state, true); }
BENCHMARK(BM_GemmGrouped)->Arg(5)->Arg(10)->Arg(20);

// Cross-replica grouped conv forward (the plan executor's conv fusion) vs
// the same per-image GEMM chain dispatched one standalone call at a time.
// Geometry mirrors a late residual-stage conv — 3x3 over 16 channels on a
// 2x2 feature map (patch 144, area 4) — the narrow-n regime where the
// standalone loop serialises each output pixel on a long FP chain and the
// lane-interleaved kernel engages (ops under the small threshold, area <= 8);
// the arg is the replica count.
void RunSmallConvLoop(benchmark::State& state, bool grouped) {
  const int count = static_cast<int>(state.range(0));
  constexpr int kBatch = 10, kOc = 16, kArea = 4, kPatch = 144;
  constexpr std::int64_t kColSize = static_cast<std::int64_t>(kPatch) * kArea;
  constexpr std::int64_t kOutSize = static_cast<std::int64_t>(kOc) * kArea;
  util::Rng rng(5);
  std::vector<std::vector<float>> w(count), cols(count), out(count);
  std::vector<ops::ConvGroup> groups(count);
  for (int r = 0; r < count; ++r) {
    w[r].resize(static_cast<std::size_t>(kOc) * kPatch);
    cols[r].resize(static_cast<std::size_t>(kBatch) * kColSize);
    out[r].resize(static_cast<std::size_t>(kBatch) * kOutSize);
    for (float& x : w[r]) x = static_cast<float>(rng.Normal(0.0, 1.0));
    for (float& x : cols[r]) x = static_cast<float>(rng.Normal(0.0, 1.0));
    groups[r] = {w[r].data(), cols[r].data(), out[r].data()};
  }
  for (auto _ : state) {
    if (grouped) {
      ops::ConvGrouped(kBatch, kOc, kArea, kPatch, groups.data(), count);
    } else {
      for (int r = 0; r < count; ++r) {
        for (int b = 0; b < kBatch; ++b) {
          ops::Gemm(false, false, kOc, kArea, kPatch, 1.0f, w[r].data(),
                    kPatch, cols[r].data() + b * kColSize, kArea, 0.0f,
                    out[r].data() + b * kOutSize, kArea);
        }
      }
    }
    benchmark::DoNotOptimize(out[0][0]);
  }
  state.SetItemsProcessed(state.iterations() * count * kBatch);
}

void BM_ConvSmallLooped(benchmark::State& state) {
  RunSmallConvLoop(state, false);
}
BENCHMARK(BM_ConvSmallLooped)->Arg(5)->Arg(10)->Arg(20);

void BM_ConvGrouped(benchmark::State& state) { RunSmallConvLoop(state, true); }
BENCHMARK(BM_ConvGrouped)->Arg(5)->Arg(10)->Arg(20);

void BM_ConvForward(benchmark::State& state) {
  int channels = static_cast<int>(state.range(0));
  util::Rng rng(2);
  nn::Conv2d conv(channels, channels, 3, 1, 1, rng);
  Tensor input = Tensor::RandomNormal({8, channels, 16, 16}, rng);
  for (auto _ : state) {
    Tensor output = conv.Forward(input);
    benchmark::DoNotOptimize(output.data());
  }
}
BENCHMARK(BM_ConvForward)->Arg(4)->Arg(8)->Arg(16);

void BM_ConvBackward(benchmark::State& state) {
  int channels = static_cast<int>(state.range(0));
  util::Rng rng(3);
  nn::Conv2d conv(channels, channels, 3, 1, 1, rng);
  Tensor input = Tensor::RandomNormal({8, channels, 16, 16}, rng);
  Tensor output = conv.Forward(input);
  for (auto _ : state) {
    Tensor grad = conv.Backward(output);
    benchmark::DoNotOptimize(grad.data());
  }
}
BENCHMARK(BM_ConvBackward)->Arg(4)->Arg(8)->Arg(16);

// GroupNorm kernels at the fcbench ResNet-8 shapes of one batch-5 step (4
// groups): arg 0 is the stem and stage 1 (8 channels on 8x8), 1 stage 2
// (16 on 4x4), 2 stage 3 (32 on 2x2).
struct GroupNormShape {
  int channels;
  int side;
};
constexpr GroupNormShape kGroupNormShapes[] = {{8, 8}, {16, 4}, {32, 2}};

void RunGroupNorm(benchmark::State& state, bool backward) {
  const GroupNormShape shape = kGroupNormShapes[state.range(0)];
  const int batch = 5, groups = 4, area = shape.side * shape.side;
  const std::size_t n = static_cast<std::size_t>(batch) * shape.channels * area;
  util::Rng rng(9);
  std::vector<float> x(n), dy(n), y(n), xhat(n), dx(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = static_cast<float>(rng.Normal());
    dy[i] = static_cast<float>(rng.Normal());
  }
  std::vector<float> gamma(shape.channels, 1.0f), beta(shape.channels, 0.0f);
  std::vector<float> dgamma(shape.channels), dbeta(shape.channels);
  std::vector<float> inv_std(batch * groups);
  nn::kernels::GroupNormForward(x.data(), y.data(), xhat.data(),
                                inv_std.data(), gamma.data(), beta.data(),
                                batch, shape.channels, groups, area, 1e-5f);
  for (auto _ : state) {
    if (backward) {
      nn::kernels::GroupNormBackward(dy.data(), xhat.data(), inv_std.data(),
                                     gamma.data(), dgamma.data(),
                                     dbeta.data(), dx.data(), batch,
                                     shape.channels, groups, area);
      benchmark::DoNotOptimize(dx.data());
      benchmark::DoNotOptimize(dgamma.data());
    } else {
      nn::kernels::GroupNormForward(x.data(), y.data(), xhat.data(),
                                    inv_std.data(), gamma.data(), beta.data(),
                                    batch, shape.channels, groups, area,
                                    1e-5f);
      benchmark::DoNotOptimize(y.data());
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  state.SetLabel(std::to_string(shape.channels) + "ch " +
                 std::to_string(shape.side) + "x" +
                 std::to_string(shape.side));
}

void BM_GroupNormForward(benchmark::State& state) {
  RunGroupNorm(state, /*backward=*/false);
}
BENCHMARK(BM_GroupNormForward)->DenseRange(0, 2);

void BM_GroupNormBackward(benchmark::State& state) {
  RunGroupNorm(state, /*backward=*/true);
}
BENCHMARK(BM_GroupNormBackward)->DenseRange(0, 2);

// The gradient-clipping norm of Sgd::Step over one tensor: 23K parameters
// (the cnn-sync CNN) and 264K (the wide-server MLP).
void BM_SquaredL2Norm(benchmark::State& state) {
  util::Rng rng(10);
  const Tensor t =
      Tensor::RandomNormal({static_cast<int>(state.range(0))}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(t.SquaredL2Norm());
  state.SetItemsProcessed(state.iterations() * t.numel());
}
BENCHMARK(BM_SquaredL2Norm)->Arg(23000)->Arg(264000);

// Conv lowering at the fcbench shapes (arg = row of kConvShapes): the
// bordered Im2Col/Col2Im per image, and the forward GEMMs of one replica's
// mini-batch run per image (the layer path, and the plan's per-image path) vs
// once over the whole batch plus the per-image transpose back (the plan's
// batch-wide path). Both GEMM variants start from filled columns.
struct ConvShape {
  const char* name;
  int batch, channels, side, out_channels, kernel, stride, pad;
};
constexpr ConvShape kConvShapes[] = {
    {"cnn-sync/conv1", 10, 3, 8, 16, 5, 1, 2},
    {"cnn-sync/conv2", 10, 16, 4, 32, 5, 1, 2},
    {"resnet-async/stem", 5, 3, 8, 8, 3, 1, 1},
    {"resnet-async/stage2.conv1", 5, 8, 8, 16, 3, 2, 1},
    {"resnet-async/stage3.conv2", 5, 32, 2, 32, 3, 1, 1},
    {"resnet-async/stage1.conv", 5, 8, 8, 8, 3, 1, 1},
    {"resnet-async/stage2.conv2", 5, 16, 4, 16, 3, 1, 1},
    {"resnet-async/stage2.proj", 5, 8, 8, 16, 1, 2, 0},
    {"resnet-async/stage3.conv1", 5, 16, 4, 32, 3, 2, 1},
    {"resnet-async/stage3.proj", 5, 16, 4, 32, 1, 2, 0},
};
constexpr int kNumConvShapes = sizeof(kConvShapes) / sizeof(kConvShapes[0]);

struct ConvGeometry {
  explicit ConvGeometry(const ConvShape& s)
      : shape(s),
        out_side(ops::ConvOutSize(s.side, s.kernel, s.stride, s.pad)),
        area(out_side * out_side),
        patch(s.channels * s.kernel * s.kernel),
        image(s.channels * s.side * s.side) {}
  ConvShape shape;
  int out_side, area, patch, image;
};

std::vector<float> RandomFloats(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.Normal(0.0, 1.0));
  return v;
}

void BM_Im2Col(benchmark::State& state) {
  const ConvGeometry g(kConvShapes[state.range(0)]);
  const ConvShape& s = g.shape;
  std::vector<float> image = RandomFloats(g.image, 11);
  std::vector<float> columns(static_cast<std::size_t>(g.patch) * g.area);
  for (auto _ : state) {
    ops::Im2Col(image.data(), s.channels, s.side, s.side, s.kernel, s.kernel,
                s.stride, s.pad, columns.data());
    benchmark::DoNotOptimize(columns.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(s.name);
  state.SetItemsProcessed(state.iterations());  // images
}
BENCHMARK(BM_Im2Col)->DenseRange(0, kNumConvShapes - 1);

void BM_Col2Im(benchmark::State& state) {
  const ConvGeometry g(kConvShapes[state.range(0)]);
  const ConvShape& s = g.shape;
  std::vector<float> columns =
      RandomFloats(static_cast<std::size_t>(g.patch) * g.area, 12);
  std::vector<float> image(g.image, 0.0f);
  for (auto _ : state) {
    // Callers zero the image for an accumulating Col2Im; an overwriting one
    // does it internally, so the fill belongs to the measured work.
    std::fill(image.begin(), image.end(), 0.0f);
    ops::Col2Im(columns.data(), s.channels, s.side, s.side, s.kernel,
                s.kernel, s.stride, s.pad, image.data());
    benchmark::DoNotOptimize(image.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(s.name);
  state.SetItemsProcessed(state.iterations());  // images
}
BENCHMARK(BM_Col2Im)->DenseRange(0, kNumConvShapes - 1);

void RunConvForwardGemms(benchmark::State& state, bool batch_wide) {
  const ConvGeometry g(kConvShapes[state.range(0)]);
  const ConvShape& s = g.shape;
  const int m = s.out_channels, n = g.area, k = g.patch, batch = s.batch;
  const std::int64_t wide_n = static_cast<std::int64_t>(batch) * n;
  std::vector<float> weights = RandomFloats(static_cast<std::size_t>(m) * k, 13);
  std::vector<float> columns =
      RandomFloats(static_cast<std::size_t>(k) * wide_n, 14);
  std::vector<float> wide(static_cast<std::size_t>(m) * wide_n);
  std::vector<float> output(static_cast<std::size_t>(m) * wide_n);
  const std::size_t row_bytes = static_cast<std::size_t>(n) * sizeof(float);
  for (auto _ : state) {
    if (batch_wide) {
      ops::Gemm(false, false, m, static_cast<int>(wide_n), k, 1.0f,
                weights.data(), k, columns.data(), static_cast<int>(wide_n),
                0.0f, wide.data(), static_cast<int>(wide_n));
      for (int b = 0; b < batch; ++b) {
        for (int i = 0; i < m; ++i) {
          std::memcpy(output.data() + (static_cast<std::int64_t>(b) * m + i) * n,
                      wide.data() + i * wide_n + static_cast<std::int64_t>(b) * n,
                      row_bytes);
        }
      }
    } else {
      for (int b = 0; b < batch; ++b) {
        ops::Gemm(false, false, m, n, k, 1.0f, weights.data(), k,
                  columns.data() + static_cast<std::int64_t>(b) * k * n, n,
                  0.0f, output.data() + static_cast<std::int64_t>(b) * m * n,
                  n);
      }
    }
    benchmark::DoNotOptimize(output.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(s.name);
  state.SetItemsProcessed(state.iterations() * 2LL * m * n * k * batch);
}

void BM_ConvForwardPerImage(benchmark::State& state) {
  RunConvForwardGemms(state, false);
}
BENCHMARK(BM_ConvForwardPerImage)->DenseRange(0, kNumConvShapes - 1);

void BM_ConvForwardBatchWide(benchmark::State& state) {
  RunConvForwardGemms(state, true);
}
BENCHMARK(BM_ConvForwardBatchWide)->DenseRange(0, kNumConvShapes - 1);

// The conv weight gradient of one replica's mini-batch, dW += sum_b dY_b *
// columns_b^T, over the plan's batch-wide column layout: one Gemm call per
// image (the layer path's loop) vs one GemmAccumulateImages call (the
// plan's), which writes the same bytes.
void RunConvWeightGrad(benchmark::State& state, bool batched) {
  const ConvGeometry g(kConvShapes[state.range(0)]);
  const ConvShape& s = g.shape;
  const int m = s.out_channels, n = g.patch, k = g.area, batch = s.batch;
  const int wide_n = batch * k;
  std::vector<float> dy =
      RandomFloats(static_cast<std::size_t>(batch) * m * k, 15);
  std::vector<float> columns =
      RandomFloats(static_cast<std::size_t>(n) * wide_n, 16);
  std::vector<float> dw(static_cast<std::size_t>(m) * n, 0.0f);
  for (auto _ : state) {
    if (batched) {
      ops::GemmAccumulateImages(batch, m, n, k, dy.data(), k,
                                static_cast<std::int64_t>(m) * k,
                                columns.data(), wide_n, k, dw.data(), n);
    } else {
      for (int b = 0; b < batch; ++b) {
        ops::Gemm(false, true, m, n, k, 1.0f,
                  dy.data() + static_cast<std::int64_t>(b) * m * k, k,
                  columns.data() + static_cast<std::int64_t>(b) * k, wide_n,
                  1.0f, dw.data(), n);
      }
    }
    benchmark::DoNotOptimize(dw.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(s.name);
  state.SetItemsProcessed(state.iterations() * 2LL * m * n * k * batch);
}

void BM_ConvWeightGradPerImage(benchmark::State& state) {
  RunConvWeightGrad(state, false);
}
BENCHMARK(BM_ConvWeightGradPerImage)->DenseRange(0, kNumConvShapes - 1);

void BM_ConvWeightGradBatched(benchmark::State& state) {
  RunConvWeightGrad(state, true);
}
BENCHMARK(BM_ConvWeightGradBatched)->DenseRange(0, kNumConvShapes - 1);

// The blocked rule's two schedules on the active tier at the wide-server
// MLP's first-layer forward (batch 8, 192 -> 1024): arg 0 packs A and B
// (gemm_blocked), arg 1 reads them in place (gemm_direct, which Gemm runs
// on this shape). Both write the same bytes.
void BM_GemmPackFree(benchmark::State& state) {
  const bool direct = state.range(0) != 0;
  const int m = 8, n = 1024, k = 192;
  const ops::detail::GemmKernels& kernels =
      ops::detail::TierGemmKernels(ops::ActiveSimdTier());
  std::vector<float> a = RandomFloats(static_cast<std::size_t>(m) * k, 17);
  std::vector<float> b = RandomFloats(static_cast<std::size_t>(k) * n, 18);
  std::vector<float> c(static_cast<std::size_t>(m) * n);
  for (auto _ : state) {
    std::fill(c.begin(), c.end(), 0.0f);
    if (direct) {
      kernels.gemm_direct(false, m, n, k, 1.0f, a.data(), k, b.data(), n,
                          c.data(), n);
    } else {
      kernels.gemm_blocked(false, false, m, n, k, 1.0f, a.data(), k, b.data(),
                           n, c.data(), n);
    }
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(direct ? "pack-free" : "packed");
  state.SetItemsProcessed(state.iterations() * 2LL * m * n * k);
}
BENCHMARK(BM_GemmPackFree)->Arg(0)->Arg(1);

nn::Sequential ZooModel(int scale) {
  models::VggConfig config;
  config.base_width = 4 * scale;
  config.fc_dim = 32 * scale;
  return models::MakeVgg(config)();
}

void BM_FlatRoundTrip(benchmark::State& state) {
  nn::Sequential model = ZooModel(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::vector<float> flat = model.ParamsToFlat();
    model.ParamsFromFlat(flat);
    benchmark::DoNotOptimize(flat.data());
  }
  state.SetBytesProcessed(state.iterations() * model.NumParams() *
                          static_cast<std::int64_t>(sizeof(float)) * 2);
}
BENCHMARK(BM_FlatRoundTrip)->Arg(1)->Arg(2)->Arg(4);

void BM_CrossAggregate(benchmark::State& state) {
  nn::Sequential model = ZooModel(static_cast<int>(state.range(0)));
  std::vector<float> a = model.ParamsToFlat();
  std::vector<float> b = a;
  for (auto _ : state) {
    std::vector<float> fused = core::FedCross::CrossAggregate(a, b, 0.99);
    benchmark::DoNotOptimize(fused.data());
  }
  state.SetBytesProcessed(state.iterations() * model.NumParams() *
                          static_cast<std::int64_t>(sizeof(float)) * 3);
}
BENCHMARK(BM_CrossAggregate)->Arg(1)->Arg(2)->Arg(4);

void BM_CosineSimilarity(benchmark::State& state) {
  nn::Sequential model = ZooModel(static_cast<int>(state.range(0)));
  std::vector<float> a = model.ParamsToFlat();
  std::vector<float> b = a;
  b[0] += 1.0f;
  for (auto _ : state) {
    double sim = ops::CosineSimilarity(a, b);
    benchmark::DoNotOptimize(sim);
  }
  state.SetBytesProcessed(state.iterations() * model.NumParams() *
                          static_cast<std::int64_t>(sizeof(float)) * 2);
}
BENCHMARK(BM_CosineSimilarity)->Arg(1)->Arg(2)->Arg(4);

// CoModelSel's whole K x K cosine matrix (the benchmark arg is K) at the
// fcbench wide-server model size, on one thread. Bytes are counted as K(K-1)/2
// pair scans of two models each, so the rate compares directly with
// BM_CosineSimilarity's per-pair rate.
constexpr std::size_t kWideServerParams = 263882;

void BM_CosineMatrix(benchmark::State& state) {
  fl::SetFlThreads(1);
  const int k = static_cast<int>(state.range(0));
  util::Rng rng(7);
  std::vector<fl::FlatParams> models(k, fl::FlatParams(kWideServerParams));
  for (fl::FlatParams& model : models) {
    for (float& v : model) v = static_cast<float>(rng.Normal());
  }
  std::vector<const fl::FlatParams*> pointers;
  for (const fl::FlatParams& model : models) pointers.push_back(&model);
  std::vector<double> matrix;
  for (auto _ : state) {
    core::SimilarityMatrix(pointers, core::SimilarityMeasure::kCosine, matrix);
    benchmark::DoNotOptimize(matrix.data());
    benchmark::ClobberMemory();
  }
  const std::int64_t pairs = static_cast<std::int64_t>(k) * (k - 1) / 2;
  state.SetItemsProcessed(state.iterations() * pairs);
  state.SetBytesProcessed(state.iterations() * pairs * 2 *
                          static_cast<std::int64_t>(kWideServerParams) *
                          static_cast<std::int64_t>(sizeof(float)));
}
BENCHMARK(BM_CosineMatrix)->Arg(10)->Arg(16);

// The wire checksum over 64 KiB and 1 MiB (one wide-server dispatch frame
// is ~1 MiB and is checksummed at encode and again at decode).
void BM_Crc32(benchmark::State& state) {
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(state.range(0)));
  util::Rng rng(11);
  for (std::uint8_t& b : bytes) {
    b = static_cast<std::uint8_t>(rng.UniformInt(256));
  }
  for (auto _ : state) {
    std::uint32_t crc = comm::Crc32(bytes);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_Crc32)->Arg(64 << 10)->Arg(1 << 20);

// One K=8-client FedAvg round vs --fl_threads (the benchmark arg). The
// per-(round, slot) seeded client Rngs make every thread count produce the
// same model, so this measures pure scheduling speedup: on an N-core
// machine, throughput should scale until Arg reaches N.
constexpr int kFedRoundDim = 64;

constexpr int kFedRoundClients = 8;

data::FederatedDataset MakeFedRoundData(int num_clients = kFedRoundClients) {
  constexpr int kDim = kFedRoundDim;
  util::Rng rng(7);
  data::FederatedDataset federated;
  federated.num_classes = 2;
  auto fill = [&](int n, std::vector<float>& features,
                  std::vector<int>& labels) {
    for (int i = 0; i < n; ++i) {
      int k = static_cast<int>(rng.UniformInt(2));
      float mean = k == 0 ? -1.0f : 1.0f;
      for (int d = 0; d < kDim; ++d) {
        features.push_back(mean + static_cast<float>(rng.Normal(0.0, 1.0)));
      }
      labels.push_back(k);
    }
  };
  for (int c = 0; c < num_clients; ++c) {
    std::vector<float> features;
    std::vector<int> labels;
    fill(200, features, labels);
    federated.client_train.push_back(std::make_shared<data::InMemoryDataset>(
        Tensor::Shape{kDim}, std::move(features), std::move(labels), 2));
  }
  {
    std::vector<float> features;
    std::vector<int> labels;
    fill(50, features, labels);
    federated.test = std::make_shared<data::InMemoryDataset>(
        Tensor::Shape{kDim}, std::move(features), std::move(labels), 2);
  }
  return federated;
}

models::ModelFactory MakeFedRoundFactory() {
  return [] {
    util::Rng model_rng(1);
    nn::Sequential model;
    model.Add(std::make_unique<nn::Linear>(kFedRoundDim, 128, model_rng));
    model.Add(std::make_unique<nn::Relu>());
    model.Add(std::make_unique<nn::Linear>(128, 2, model_rng));
    return model;
  };
}

fl::AlgorithmConfig MakeFedRoundConfig() {
  fl::AlgorithmConfig config;
  config.clients_per_round = kFedRoundClients;
  config.train.local_epochs = 2;
  config.train.batch_size = 20;
  config.seed = 42;
  return config;
}

void RunFedRoundLoop(benchmark::State& state, fl::AlgorithmConfig config) {
  fl::SetFlThreads(static_cast<int>(state.range(0)));
  fl::FedAvg fedavg(config, MakeFedRoundData(), MakeFedRoundFactory());
  int round = 0;
  for (auto _ : state) {
    fedavg.RunRound(round++);
    benchmark::DoNotOptimize(round);
  }
  state.SetItemsProcessed(state.iterations() * kFedRoundClients);
  fl::SetFlThreads(1);
}

void BM_FedRound(benchmark::State& state) {
  RunFedRoundLoop(state, MakeFedRoundConfig());
}
BENCHMARK(BM_FedRound)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// The same round with the full robustness stack switched on: per-slot fault
// streams, upload screening (finite check + norm gate) and a trimmed-mean
// aggregator. The delta vs BM_FedRound is the price of resilience; the
// screening pass is O(P) per upload and the trimmed mean sorts one
// K-element column per coordinate.
void BM_FedRoundRobust(benchmark::State& state) {
  fl::AlgorithmConfig config = MakeFedRoundConfig();
  config.faults.profile.dropout_prob = 0.05;
  config.faults.profile.corrupt_prob = 0.05;
  config.faults.profile.corruption = fl::CorruptionKind::kSignFlip;
  config.screening.check_finite = true;
  config.screening.max_update_norm = 100.0f;
  config.aggregator.kind = fl::AggregatorKind::kTrimmedMean;
  config.aggregator.trim_ratio = 0.2;
  RunFedRoundLoop(state, config);
}
BENCHMARK(BM_FedRoundRobust)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// The buffered-async engine on a heterogeneous fleet: per-dispatch clock
// draws, timeout + retry resolution, the arrival heap, and staleness-scaled
// aggregation. The delta vs BM_FedRound is the engine's wall-clock price
// (the virtual clock itself costs a few RNG draws per dispatch; the heap is
// O(log inflight) per upload).
void BM_FedRoundAsync(benchmark::State& state) {
  fl::AlgorithmConfig config = MakeFedRoundConfig();
  config.async.mode = fl::RoundMode::kAsync;
  config.async.buffer_size = kFedRoundClients / 2;
  config.async.dispatch_timeout = 2.0;
  config.async.max_retries = 1;
  config.async.clock.compute_speed_min = 25.0;
  config.async.clock.compute_speed_max = 400.0;
  config.async.clock.jitter = 0.1;
  config.faults.profile.straggler_prob = 0.3;
  RunFedRoundLoop(state, config);
}
BENCHMARK(BM_FedRoundAsync)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// The same round with every observability sink armed: metrics counters and
// histograms, phase/span tracing into the per-thread rings, and the round
// event stream (to /dev/null — the fprintf + fflush cost is real, the disk
// is not the point). The delta vs BM_FedRound is the full observability
// overhead; the acceptance bar is <= 5%.
void BM_FedRoundObs(benchmark::State& state) {
  obs::SetMetricsEnabled(true);
  obs::SetTracingEnabled(true);
  obs::SetEventsPath("/dev/null");
  RunFedRoundLoop(state, MakeFedRoundConfig());
  obs::SetEventsPath("");
  obs::SetTracingEnabled(false);
  obs::SetMetricsEnabled(false);
  obs::TraceRecorder::Global().Clear();
  obs::MetricsRegistry::Global().Reset();
}
BENCHMARK(BM_FedRoundObs)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// The same round shape against a lazily materialised virtual population;
// the arg is the REGISTERED client count N, while only K=8 clients per
// round ever hold data. Wall time should be flat in N (sampling is O(K)
// via Floyd, registration is ids + a shard factory) and the peak_rss_mb
// counter is the scale headline: memory tracks participation, not N.
data::FederatedDataset MakeVirtualFedRoundData(std::int64_t num_clients) {
  constexpr int kDim = kFedRoundDim;
  data::FederatedDataset federated;
  federated.num_classes = 2;
  federated.virtual_clients = num_clients;
  federated.make_shard = [](std::int64_t id) {
    util::Rng rng(0x5ca1e ^
                  (static_cast<std::uint64_t>(id) + 1) * 0x9e3779b97f4a7c15ULL);
    std::vector<float> features;
    std::vector<int> labels;
    for (int i = 0; i < 200; ++i) {
      int k = static_cast<int>(rng.UniformInt(2));
      float mean = k == 0 ? -1.0f : 1.0f;
      for (int d = 0; d < kDim; ++d) {
        features.push_back(mean + static_cast<float>(rng.Normal(0.0, 1.0)));
      }
      labels.push_back(k);
    }
    return std::make_shared<data::InMemoryDataset>(
        Tensor::Shape{kDim}, std::move(features), std::move(labels), 2);
  };
  {
    util::Rng rng(7);
    std::vector<float> features;
    std::vector<int> labels;
    for (int i = 0; i < 50; ++i) {
      int k = static_cast<int>(rng.UniformInt(2));
      float mean = k == 0 ? -1.0f : 1.0f;
      for (int d = 0; d < kDim; ++d) {
        features.push_back(mean + static_cast<float>(rng.Normal(0.0, 1.0)));
      }
      labels.push_back(k);
    }
    federated.test = std::make_shared<data::InMemoryDataset>(
        Tensor::Shape{kDim}, std::move(features), std::move(labels), 2);
  }
  return federated;
}

void BM_FedRoundScale(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  fl::SetFlThreads(4);
  fl::AlgorithmConfig config = MakeFedRoundConfig();
  config.population = fl::PopulationMode::kVirtual;
  fl::FedAvg fedavg(config, MakeVirtualFedRoundData(n),
                    MakeFedRoundFactory());
  int round = 0;
  for (auto _ : state) {
    fedavg.RunRound(round++);
    benchmark::DoNotOptimize(round);
  }
  state.SetItemsProcessed(state.iterations() * kFedRoundClients);
  state.counters["registered"] = static_cast<double>(n);
  state.counters["resident"] =
      static_cast<double>(fedavg.population().resident_clients());
  state.counters["peak_rss_mb"] =
      static_cast<double>(util::PeakRssBytes()) / (1024.0 * 1024.0);
  fl::SetFlThreads(1);
}
BENCHMARK(BM_FedRoundScale)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->UseRealTime();

// A full FedCross round sweeping the middleware-model count K, under both
// execution backends. K middleware models train on K sampled clients per
// round, so K is both the replica count the plan executor can fuse across
// and the cross-aggregation fan-in. Args: {K, exec} with exec 0 = layers,
// 1 = plan; the layers/plan delta at fixed K is the batched-executor
// speedup reported in EXPERIMENTS.md.
void BM_FedCrossRound(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  fl::SetFlThreads(1);
  fl::AlgorithmConfig config = MakeFedRoundConfig();
  config.clients_per_round = k;
  config.train.exec =
      state.range(1) == 1 ? fl::ExecMode::kPlan : fl::ExecMode::kLayers;
  core::FedCrossOptions options;
  options.alpha = 0.9;
  core::FedCross server(config, MakeFedRoundData(2 * k),
                        MakeFedRoundFactory(), options);
  int round = 0;
  for (auto _ : state) {
    server.RunRound(round++);
    benchmark::DoNotOptimize(round);
  }
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_FedCrossRound)
    ->Args({5, 0})
    ->Args({5, 1})
    ->Args({10, 0})
    ->Args({10, 1})
    ->Args({20, 0})
    ->Args({20, 1})
    ->ArgNames({"K", "plan"})
    ->UseRealTime();

// The same K x exec sweep on the compiled zoo topologies: ResNet (residual
// skip refs + the cross-replica grouped-conv fusion) and the Embedding+LSTM
// head (bounded per-timestep loop with grouped gate GEMMs). Both compile,
// so plan:1 trains every job on the plan executor.
void RunFedCrossZooRound(benchmark::State& state,
                         const models::ModelFactory& factory,
                         data::FederatedDataset data) {
  const int k = static_cast<int>(state.range(0));
  fl::SetFlThreads(1);
  fl::AlgorithmConfig config;
  config.clients_per_round = k;
  config.train.local_epochs = 1;
  config.train.batch_size = 10;
  config.seed = 42;
  config.train.exec =
      state.range(1) == 1 ? fl::ExecMode::kPlan : fl::ExecMode::kLayers;
  core::FedCrossOptions options;
  options.alpha = 0.9;
  core::FedCross server(config, std::move(data), factory, options);
  int round = 0;
  for (auto _ : state) {
    server.RunRound(round++);
    benchmark::DoNotOptimize(round);
  }
  state.SetItemsProcessed(state.iterations() * k);
}

void BM_FedCrossRoundResNet(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  models::ResNetConfig resnet;
  resnet.height = resnet.width = 8;
  resnet.num_classes = 4;
  resnet.base_width = 4;
  data::SyntheticImageOptions image;
  image.num_classes = 4;
  image.height = image.width = 8;
  image.train_per_class = 10 * k;  // ~20 examples per client at 2K clients
  image.test_per_class = 8;
  image.seed = 11;
  data::ImageCorpus corpus = data::MakeSyntheticImageCorpus(image);
  util::Rng rng(12);
  data::FederatedDataset federated;
  federated.num_classes = 4;
  federated.client_train = data::MakeClientShards(
      corpus.train, data::IidPartition(*corpus.train, 2 * k, rng));
  federated.test = corpus.test;
  RunFedCrossZooRound(state, models::MakeResNet(resnet),
                      std::move(federated));
}
BENCHMARK(BM_FedCrossRoundResNet)
    ->Args({5, 0})
    ->Args({5, 1})
    ->Args({10, 0})
    ->Args({10, 1})
    ->Args({20, 0})
    ->Args({20, 1})
    ->ArgNames({"K", "plan"})
    ->UseRealTime();

void BM_FedCrossRoundLstm(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  models::LstmConfig lstm;  // vocab 32, seq 16, embed 16, hidden 32
  data::SyntheticCharLmOptions text;
  text.num_clients = 2 * k;
  text.mean_samples_per_client = 20;
  text.test_samples = 40;
  text.seed = 13;
  RunFedCrossZooRound(state, models::MakeLstm(lstm),
                      data::MakeSyntheticCharLm(text));
}
BENCHMARK(BM_FedCrossRoundLstm)
    ->Args({5, 0})
    ->Args({5, 1})
    ->Args({10, 0})
    ->Args({10, 1})
    ->Args({20, 0})
    ->Args({20, 1})
    ->ArgNames({"K", "plan"})
    ->UseRealTime();

// Parallel deterministic evaluation: EvaluateParams fans test batches over
// the FL pool, one pooled replica per worker slot, and reduces per-batch
// partials in batch order — results are bit-identical at every thread count
// (the arg), so this measures pure evaluation throughput. At Arg(1) it also
// shows the benefit of replica reuse over per-call model construction.
void BM_Evaluate(benchmark::State& state) {
  constexpr int kDim = kFedRoundDim;
  util::Rng rng(11);
  std::vector<float> features;
  std::vector<int> labels;
  for (int i = 0; i < 2000; ++i) {
    int k = static_cast<int>(rng.UniformInt(2));
    float mean = k == 0 ? -1.0f : 1.0f;
    for (int d = 0; d < kDim; ++d) {
      features.push_back(mean + static_cast<float>(rng.Normal(0.0, 1.0)));
    }
    labels.push_back(k);
  }
  data::InMemoryDataset dataset(Tensor::Shape{kDim}, std::move(features),
                                std::move(labels), 2);
  models::ModelFactory factory = [] {
    util::Rng model_rng(1);
    nn::Sequential model;
    model.Add(std::make_unique<nn::Linear>(kFedRoundDim, 128, model_rng));
    model.Add(std::make_unique<nn::Relu>());
    model.Add(std::make_unique<nn::Linear>(128, 2, model_rng));
    return model;
  };
  fl::ModelPool pool(factory);
  std::vector<float> params = factory().ParamsToFlat();

  fl::SetFlThreads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    fl::EvalResult result = fl::EvaluateParams(pool, params, dataset, 100);
    benchmark::DoNotOptimize(result.loss);
  }
  state.SetItemsProcessed(state.iterations() * dataset.size());
  fl::SetFlThreads(1);
}
BENCHMARK(BM_Evaluate)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// --- Wire codec (comm/wire.h) ----------------------------------------------
// Encode/decode cost per upload at a realistic model size, per scheme (the
// benchmark arg indexes kCodecSchemes). Bytes processed = the raw payload,
// so the reported GB/s is payload throughput, not frame throughput.

constexpr comm::Scheme kCodecSchemes[] = {
    comm::Scheme::kIdentity, comm::Scheme::kDelta, comm::Scheme::kInt8,
    comm::Scheme::kTopK, comm::Scheme::kInt8TopK};

struct CodecFixture {
  comm::ShapeTable shapes;
  std::vector<float> reference;
  std::vector<float> trained;

  CodecFixture() {
    nn::Sequential model = ZooModel(2);
    for (const nn::Param* param : model.Params()) {
      shapes.push_back(static_cast<std::uint32_t>(param->value.numel()));
    }
    reference = model.ParamsToFlat();
    trained = reference;
    util::Rng rng(5);
    // A plausible local update: small perturbation of every coordinate.
    for (float& v : trained) {
      v += 0.01f * static_cast<float>(rng.Normal(0.0, 1.0));
    }
  }
};

void BM_Encode(benchmark::State& state) {
  CodecFixture fx;
  comm::CodecOptions options;
  options.scheme = kCodecSchemes[state.range(0)];
  std::vector<float> residual;
  std::vector<std::uint8_t> frame;
  util::Rng rng(6);
  for (auto _ : state) {
    comm::EncodeUpload(options, fx.trained, fx.reference, fx.shapes, residual,
                       rng, frame);
    benchmark::DoNotOptimize(frame.data());
  }
  state.SetLabel(comm::SchemeName(options.scheme));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.trained.size()) *
                          static_cast<std::int64_t>(sizeof(float)));
}
BENCHMARK(BM_Encode)->DenseRange(0, 4);

void BM_Decode(benchmark::State& state) {
  CodecFixture fx;
  comm::CodecOptions options;
  options.scheme = kCodecSchemes[state.range(0)];
  std::vector<float> residual;
  std::vector<std::uint8_t> frame;
  util::Rng rng(6);
  comm::EncodeUpload(options, fx.trained, fx.reference, fx.shapes, residual,
                     rng, frame);
  std::vector<float> decoded;
  for (auto _ : state) {
    util::Status status =
        comm::DecodeUpload(frame, fx.reference, fx.shapes, decoded);
    benchmark::DoNotOptimize(status.ok());
    benchmark::DoNotOptimize(decoded.data());
  }
  state.SetLabel(comm::SchemeName(options.scheme));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.trained.size()) *
                          static_cast<std::int64_t>(sizeof(float)));
}
BENCHMARK(BM_Decode)->DenseRange(0, 4);

// The wide-server upload: FedCross's MLP on fcbench's wide-server workload
// (six tensors, 263,882 floats) through the top-k schemes at fraction 0.1,
// with an error-feedback residual warmed by earlier rounds. Arg indexes
// kCodecSchemes (3 = topk, 4 = int8_topk). One thread; not gated.
struct WideCodecFixture {
  comm::ShapeTable shapes = {196608, 1024, 65536, 64, 640, 10};
  comm::CodecOptions options;
  std::vector<float> reference;
  std::vector<float> trained;
  std::vector<float> residual;
  std::vector<std::uint8_t> frame;
  util::Rng rng{6};

  explicit WideCodecFixture(comm::Scheme scheme) {
    options.scheme = scheme;
    options.topk_fraction = 0.1;
    util::Rng init(5);
    for (std::uint32_t len : shapes) {
      for (std::uint32_t i = 0; i < len; ++i) {
        const float w = 0.05f * static_cast<float>(init.Normal(0.0, 1.0));
        reference.push_back(w);
        trained.push_back(w + 0.01f * static_cast<float>(init.Normal(0.0, 1.0)));
      }
    }
    for (int round = 0; round < 8; ++round) Encode();
  }
  void Encode() {
    comm::EncodeUpload(options, trained, reference, shapes, residual, rng,
                       frame);
  }
};

void BM_EncodeWide(benchmark::State& state) {
  WideCodecFixture fx(kCodecSchemes[state.range(0)]);
  for (auto _ : state) {
    fx.Encode();
    benchmark::DoNotOptimize(fx.frame.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(comm::SchemeName(fx.options.scheme));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.trained.size()) *
                          static_cast<std::int64_t>(sizeof(float)));
}
BENCHMARK(BM_EncodeWide)->Arg(3)->Arg(4);

void BM_DecodeWide(benchmark::State& state) {
  WideCodecFixture fx(kCodecSchemes[state.range(0)]);
  std::vector<float> decoded;
  for (auto _ : state) {
    util::Status status =
        comm::DecodeUpload(fx.frame, fx.reference, fx.shapes, decoded);
    benchmark::DoNotOptimize(status.ok());
    benchmark::DoNotOptimize(decoded.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(comm::SchemeName(fx.options.scheme));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.trained.size()) *
                          static_cast<std::int64_t>(sizeof(float)));
}
BENCHMARK(BM_DecodeWide)->Arg(3)->Arg(4);

// DP-SGD sanitisation (privacy/dp.h): one clip-and-noise pass over a
// model-sized update. Arg is the parameter count in thousands; this is the
// per-upload cost DP adds to every client round.
void BM_SanitizeUpdate(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0)) * 1024;
  util::Rng init(11);
  fl::FlatParams reference(size);
  fl::FlatParams uploaded(size);
  for (std::size_t i = 0; i < size; ++i) {
    reference[i] = static_cast<float>(init.Normal(0.0, 1.0));
    uploaded[i] = reference[i] + static_cast<float>(init.Normal(0.0, 0.1));
  }
  privacy::DpOptions options;
  options.clip_norm = 1.0f;
  options.noise_multiplier = 1.0f;
  fl::FlatParams params;
  util::Rng rng(privacy::PrivacySeed(17, 1, 0, 0));
  for (auto _ : state) {
    params = uploaded;
    bool clipped =
        privacy::SanitizeUpdateInPlace(reference, params, options, rng);
    benchmark::DoNotOptimize(clipped);
    benchmark::DoNotOptimize(params.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(size) *
                          static_cast<std::int64_t>(sizeof(float)));
}
BENCHMARK(BM_SanitizeUpdate)->Arg(4)->Arg(16)->Arg(64);

// Masked fixed-point aggregation (privacy/masking.h): one full secure-
// aggregation round over a cohort of 8 model-sized uploads, including the
// word-exact cancellation check and one dropout's mask recovery. Arg is the
// parameter count in thousands.
void BM_MaskedSum(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0)) * 1024;
  const int cohort = 8;
  util::Rng init(13);
  std::vector<fl::FlatParams> uploads(cohort, fl::FlatParams(size));
  for (auto& upload : uploads) {
    for (float& v : upload) v = static_cast<float>(init.Normal(0.0, 1.0));
  }
  std::vector<const fl::FlatParams*> pointers;
  for (const auto& upload : uploads) pointers.push_back(&upload);
  pointers[3] = nullptr;  // one dropout exercises the recovery path
  privacy::MaskOptions options;
  options.enabled = true;
  for (auto _ : state) {
    privacy::MaskedSumReport report =
        privacy::SimulateMaskedAggregation(17, 1, 0, pointers, options);
    benchmark::DoNotOptimize(report.exact);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(size) * (cohort - 1) *
                          static_cast<std::int64_t>(sizeof(float)));
}
BENCHMARK(BM_MaskedSum)->Arg(4)->Arg(16)->Arg(64);

void BM_LossForwardBackward(benchmark::State& state) {
  util::Rng rng(4);
  Tensor logits = Tensor::RandomNormal({64, 100}, rng);
  std::vector<int> labels(64);
  for (int i = 0; i < 64; ++i) labels[i] = i % 100;
  nn::CrossEntropyLoss criterion;
  for (auto _ : state) {
    nn::LossResult result = criterion.Compute(logits, labels);
    benchmark::DoNotOptimize(result.loss);
  }
}
BENCHMARK(BM_LossForwardBackward);

}  // namespace
}  // namespace fedcross
