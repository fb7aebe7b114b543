#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/embedding.h"
#include "nn/flatten.h"
#include "nn/kernels.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/lstm.h"
#include "nn/norm.h"
#include "nn/pooling.h"
#include "nn/residual.h"
#include "nn/sequential.h"
#include "util/rng.h"

namespace fedcross::nn {
namespace {

// ---------------------------------------------------------------- Linear

TEST(LinearTest, OutputShapeAndBias) {
  util::Rng rng(1);
  Linear layer(3, 2, rng);
  Tensor input = Tensor::Zeros({4, 3});
  Tensor output = layer.Forward(input);
  EXPECT_EQ(output.dim(0), 4);
  EXPECT_EQ(output.dim(1), 2);
  // Zero input -> outputs equal the (zero-initialised) bias.
  for (std::int64_t i = 0; i < output.numel(); ++i) {
    EXPECT_EQ(output.at(i), 0.0f);
  }
}

TEST(LinearTest, KnownComputation) {
  util::Rng rng(1);
  Linear layer(2, 1, rng);
  std::vector<Param*> params;
  layer.CollectParams(params);
  ASSERT_EQ(params.size(), 2u);
  params[0]->value = Tensor::FromVector({2, 1}, {2.0f, 3.0f});  // W
  params[1]->value = Tensor::FromVector({1}, {0.5f});           // b
  Tensor input = Tensor::FromVector({1, 2}, {1.0f, -1.0f});
  Tensor output = layer.Forward(input);
  EXPECT_FLOAT_EQ(output.at(0), 2.0f - 3.0f + 0.5f);
}

TEST(LinearTest, GradAccumulatesAcrossBatches) {
  util::Rng rng(2);
  Linear layer(2, 2, rng);
  Tensor input = Tensor::FromVector({1, 2}, {1.0f, 1.0f});
  Tensor grad = Tensor::FromVector({1, 2}, {1.0f, 0.0f});
  layer.Forward(input);
  layer.Backward(grad);
  layer.Forward(input);
  layer.Backward(grad);
  std::vector<Param*> params;
  layer.CollectParams(params);
  // dW accumulated twice.
  EXPECT_FLOAT_EQ(params[0]->grad.at(0, 0), 2.0f);
}

// ----------------------------------------------------------- Activations

TEST(ReluTest, ClampsNegatives) {
  Relu relu;
  Tensor input = Tensor::FromVector({4}, {-1, 0, 2, -3});
  Tensor output = relu.Forward(input);
  EXPECT_EQ(output.at(0), 0.0f);
  EXPECT_EQ(output.at(1), 0.0f);
  EXPECT_EQ(output.at(2), 2.0f);
  EXPECT_EQ(output.at(3), 0.0f);
}

TEST(ReluTest, BackwardMasksByInputSign) {
  Relu relu;
  Tensor input = Tensor::FromVector({3}, {-1, 1, 2});
  relu.Forward(input);
  Tensor grad = Tensor::FromVector({3}, {5, 5, 5});
  Tensor grad_input = relu.Backward(grad);
  EXPECT_EQ(grad_input.at(0), 0.0f);
  EXPECT_EQ(grad_input.at(1), 5.0f);
  EXPECT_EQ(grad_input.at(2), 5.0f);
}

// --------------------------------------------------------------- Pooling

TEST(MaxPoolTest, SelectsWindowMax) {
  MaxPool2d pool(2, 2);
  Tensor input = Tensor::FromVector({1, 1, 2, 2}, {1, 9, 3, 4});
  Tensor output = pool.Forward(input);
  EXPECT_EQ(output.numel(), 1);
  EXPECT_FLOAT_EQ(output.at(0), 9.0f);
}

TEST(MaxPoolTest, BackwardRoutesToArgmax) {
  MaxPool2d pool(2, 2);
  Tensor input = Tensor::FromVector({1, 1, 2, 2}, {1, 9, 3, 4});
  pool.Forward(input);
  Tensor grad = Tensor::FromVector({1, 1, 1, 1}, {7.0f});
  Tensor grad_input = pool.Backward(grad);
  EXPECT_FLOAT_EQ(grad_input.at(0), 0.0f);
  EXPECT_FLOAT_EQ(grad_input.at(1), 7.0f);
  EXPECT_FLOAT_EQ(grad_input.at(2), 0.0f);
}

TEST(MaxPoolTest, HalvesSpatialDims) {
  MaxPool2d pool(2, 2);
  Tensor input = Tensor::Zeros({2, 3, 8, 6});
  Tensor output = pool.Forward(input);
  EXPECT_EQ(output.shape(), (Tensor::Shape{2, 3, 4, 3}));
}

TEST(GlobalAvgPoolTest, AveragesPlane) {
  GlobalAvgPool pool;
  Tensor input = Tensor::FromVector({1, 2, 1, 2}, {1, 3, 10, 20});
  Tensor output = pool.Forward(input);
  EXPECT_EQ(output.shape(), (Tensor::Shape{1, 2}));
  EXPECT_FLOAT_EQ(output.at(0), 2.0f);
  EXPECT_FLOAT_EQ(output.at(1), 15.0f);
}

// -------------------------------------------------------------- GroupNorm

TEST(GroupNormTest, NormalisesPerGroup) {
  GroupNorm norm(4, 2);
  util::Rng rng(3);
  Tensor input = Tensor::RandomNormal({2, 4, 3, 3}, rng, 5.0f, 2.0f);
  Tensor output = norm.Forward(input);
  // Each (sample, group) slice should have ~zero mean and ~unit variance
  // (gamma=1, beta=0 initially).
  int area = 9;
  int chans_per_group = 2;
  for (int b = 0; b < 2; ++b) {
    for (int g = 0; g < 2; ++g) {
      double mean = 0.0, var = 0.0;
      const float* base =
          output.data() + ((b * 4) + g * chans_per_group) * area;
      int count = chans_per_group * area;
      for (int i = 0; i < count; ++i) mean += base[i];
      mean /= count;
      for (int i = 0; i < count; ++i) {
        var += (base[i] - mean) * (base[i] - mean);
      }
      var /= count;
      EXPECT_NEAR(mean, 0.0, 1e-4);
      EXPECT_NEAR(var, 1.0, 1e-2);
    }
  }
}

TEST(GroupNormTest, GammaBetaApplied) {
  GroupNorm norm(2, 1);
  std::vector<Param*> params;
  norm.CollectParams(params);
  params[0]->value.Fill(3.0f);   // gamma
  params[1]->value.Fill(-1.0f);  // beta
  util::Rng rng(4);
  Tensor input = Tensor::RandomNormal({1, 2, 2, 2}, rng);
  Tensor output = norm.Forward(input);
  // Output mean should be beta (= -1) since normalised mean is 0.
  EXPECT_NEAR(output.Mean(), -1.0f, 1e-4f);
}

// The serial GroupNorm loops the kernels must reproduce bit for bit: one
// statistics chain per (sample, group) block and one dgamma/dbeta chain per
// channel, each in element order.
void ReferenceGroupNormForward(const float* x, float* y, float* xhat,
                               float* inv_std, const float* gamma,
                               const float* beta, int batch, int channels,
                               int groups, int area, float eps) {
  int chans_per_group = channels / groups;
  std::int64_t group_size = static_cast<std::int64_t>(chans_per_group) * area;
  for (int b = 0; b < batch; ++b) {
    for (int g = 0; g < groups; ++g) {
      std::int64_t base =
          (static_cast<std::int64_t>(b) * channels + g * chans_per_group) *
          area;
      double mean = 0.0;
      for (std::int64_t i = 0; i < group_size; ++i) mean += x[base + i];
      mean /= group_size;
      double var = 0.0;
      for (std::int64_t i = 0; i < group_size; ++i) {
        double d = x[base + i] - mean;
        var += d * d;
      }
      var /= group_size;
      float istd = static_cast<float>(1.0 / std::sqrt(var + eps));
      inv_std[static_cast<std::size_t>(b) * groups + g] = istd;
      for (int c = 0; c < chans_per_group; ++c) {
        int channel = g * chans_per_group + c;
        std::int64_t offset = base + static_cast<std::int64_t>(c) * area;
        for (int i = 0; i < area; ++i) {
          float normalized =
              (x[offset + i] - static_cast<float>(mean)) * istd;
          xhat[offset + i] = normalized;
          y[offset + i] = gamma[channel] * normalized + beta[channel];
        }
      }
    }
  }
}

void ReferenceGroupNormBackward(const float* dy, const float* xhat,
                                const float* inv_std, const float* gamma,
                                float* dgamma, float* dbeta, float* dx,
                                int batch, int channels, int groups,
                                int area) {
  int chans_per_group = channels / groups;
  std::int64_t group_size = static_cast<std::int64_t>(chans_per_group) * area;
  for (int b = 0; b < batch; ++b) {
    for (int g = 0; g < groups; ++g) {
      std::int64_t base =
          (static_cast<std::int64_t>(b) * channels + g * chans_per_group) *
          area;
      float istd = inv_std[static_cast<std::size_t>(b) * groups + g];

      // Accumulate the two per-group reductions of dxhat = dy * gamma.
      double sum_dxhat = 0.0;
      double sum_dxhat_xhat = 0.0;
      for (int c = 0; c < chans_per_group; ++c) {
        int channel = g * chans_per_group + c;
        std::int64_t offset = base + static_cast<std::int64_t>(c) * area;
        for (int i = 0; i < area; ++i) {
          float dxhat = dy[offset + i] * gamma[channel];
          sum_dxhat += dxhat;
          sum_dxhat_xhat += static_cast<double>(dxhat) * xhat[offset + i];
        }
      }
      float mean_dxhat = static_cast<float>(sum_dxhat / group_size);
      float mean_dxhat_xhat = static_cast<float>(sum_dxhat_xhat / group_size);

      for (int c = 0; c < chans_per_group; ++c) {
        int channel = g * chans_per_group + c;
        std::int64_t offset = base + static_cast<std::int64_t>(c) * area;
        for (int i = 0; i < area; ++i) {
          float dyv = dy[offset + i];
          float xh = xhat[offset + i];
          dgamma[channel] += dyv * xh;
          dbeta[channel] += dyv;
          float dxhat = dyv * gamma[channel];
          dx[offset + i] = istd * (dxhat - mean_dxhat - xh * mean_dxhat_xhat);
        }
      }
    }
  }
}

void ExpectSameBits(const std::vector<float>& got,
                    const std::vector<float>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
            0)
      << what;
}

TEST(GroupNormKernelTest, ForwardAndBackwardMatchSerialLoopsBitForBit) {
  // (batch, groups) factorings of every batch x groups count, so the
  // kernels see full tiles of eight blocks, partial ones and single blocks.
  const std::pair<int, int> blockings[] = {
      {1, 1}, {7, 1}, {1, 7}, {2, 4}, {8, 1}, {3, 3}, {9, 1},
      {5, 4}, {20, 1}, {4, 5}, {11, 3}, {33, 1}};
  util::Rng rng(57);
  int cases = 0;
  for (const auto& [batch, groups] : blockings) {
    for (int area : {1, 4, 64}) {
      for (int chans_per_group : {1, 2, 8}) {
        const int channels = groups * chans_per_group;
        const std::size_t n =
            static_cast<std::size_t>(batch) * channels * area;
        auto random = [&](std::size_t count, double mean, double stddev) {
          std::vector<float> v(count);
          for (float& e : v) e = static_cast<float>(rng.Normal(mean, stddev));
          return v;
        };
        const std::vector<float> x = random(n, 3.0, 2.0);
        const std::vector<float> gamma = random(channels, 1.0, 0.5);
        const std::vector<float> beta = random(channels, 0.0, 0.5);
        const std::vector<float> dy = random(n, 0.0, 1.0);
        const float eps = 1e-5f;

        std::vector<float> y(n), xhat(n), inv_std(batch * groups);
        std::vector<float> ref_y(n), ref_xhat(n), ref_inv_std(batch * groups);
        kernels::GroupNormForward(x.data(), y.data(), xhat.data(),
                                  inv_std.data(), gamma.data(), beta.data(),
                                  batch, channels, groups, area, eps);
        ReferenceGroupNormForward(x.data(), ref_y.data(), ref_xhat.data(),
                                  ref_inv_std.data(), gamma.data(),
                                  beta.data(), batch, channels, groups, area,
                                  eps);
        ExpectSameBits(y, ref_y, "y");
        ExpectSameBits(xhat, ref_xhat, "xhat");
        ExpectSameBits(inv_std, ref_inv_std, "inv_std");

        // dgamma/dbeta accumulate, so both start from earlier gradients.
        std::vector<float> dgamma = random(channels, 0.0, 3.0);
        std::vector<float> dbeta = random(channels, 0.0, 3.0);
        std::vector<float> ref_dgamma = dgamma, ref_dbeta = dbeta;
        std::vector<float> dx(n), ref_dx(n);
        kernels::GroupNormBackward(dy.data(), xhat.data(), inv_std.data(),
                                   gamma.data(), dgamma.data(), dbeta.data(),
                                   dx.data(), batch, channels, groups, area);
        ReferenceGroupNormBackward(dy.data(), ref_xhat.data(),
                                   ref_inv_std.data(), gamma.data(),
                                   ref_dgamma.data(), ref_dbeta.data(),
                                   ref_dx.data(), batch, channels, groups,
                                   area);
        ExpectSameBits(dx, ref_dx, "dx");
        ExpectSameBits(dgamma, ref_dgamma, "dgamma");
        ExpectSameBits(dbeta, ref_dbeta, "dbeta");
        ++cases;
        if (HasFailure()) {
          FAIL() << "batch " << batch << " groups " << groups << " area "
                 << area << " channels/group " << chans_per_group;
        }
      }
    }
  }
  EXPECT_EQ(cases, 108);
}

TEST(GroupNormKernelTest, BackwardMayWriteDxOverDy) {
  const int batch = 5, channels = 16, groups = 4, area = 16;
  const std::size_t n = static_cast<std::size_t>(batch) * channels * area;
  util::Rng rng(58);
  std::vector<float> x(n), gamma(channels, 1.5f), beta(channels, 0.25f);
  for (float& v : x) v = static_cast<float>(rng.Normal());
  std::vector<float> y(n), xhat(n), inv_std(batch * groups);
  kernels::GroupNormForward(x.data(), y.data(), xhat.data(), inv_std.data(),
                            gamma.data(), beta.data(), batch, channels, groups,
                            area, 1e-5f);
  std::vector<float> dy(n);
  for (float& v : dy) v = static_cast<float>(rng.Normal());
  std::vector<float> dgamma(channels), dbeta(channels), dx(n);
  kernels::GroupNormBackward(dy.data(), xhat.data(), inv_std.data(),
                             gamma.data(), dgamma.data(), dbeta.data(),
                             dx.data(), batch, channels, groups, area);
  std::vector<float> in_place = dy;
  std::vector<float> dgamma2(channels), dbeta2(channels);
  kernels::GroupNormBackward(in_place.data(), xhat.data(), inv_std.data(),
                             gamma.data(), dgamma2.data(), dbeta2.data(),
                             in_place.data(), batch, channels, groups, area);
  ExpectSameBits(in_place, dx, "dx over dy");
  ExpectSameBits(dgamma2, dgamma, "dgamma");
  ExpectSameBits(dbeta2, dbeta, "dbeta");
}

// ---------------------------------------------------------------- Flatten

TEST(FlattenTest, RoundTrip) {
  Flatten flatten;
  Tensor input = Tensor::Zeros({2, 3, 4, 5});
  Tensor output = flatten.Forward(input);
  EXPECT_EQ(output.shape(), (Tensor::Shape{2, 60}));
  Tensor grad = Tensor::Zeros({2, 60});
  Tensor grad_input = flatten.Backward(grad);
  EXPECT_EQ(grad_input.shape(), (Tensor::Shape{2, 3, 4, 5}));
}

// -------------------------------------------------------------- Embedding

TEST(EmbeddingTest, LooksUpRows) {
  util::Rng rng(5);
  Embedding embedding(4, 3, rng);
  std::vector<Param*> params;
  embedding.CollectParams(params);
  params[0]->value =
      Tensor::FromVector({4, 3}, {0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3});
  Tensor input = Tensor::FromVector({1, 2}, {2.0f, 0.0f});
  Tensor output = embedding.Forward(input);
  EXPECT_EQ(output.shape(), (Tensor::Shape{1, 2, 3}));
  EXPECT_FLOAT_EQ(output.at(0), 2.0f);
  EXPECT_FLOAT_EQ(output.at(3), 0.0f);
}

TEST(EmbeddingTest, BackwardScattersIntoRows) {
  util::Rng rng(6);
  Embedding embedding(3, 2, rng);
  Tensor input = Tensor::FromVector({1, 2}, {1.0f, 1.0f});
  embedding.Forward(input);
  Tensor grad = Tensor::Full({1, 2, 2}, 1.0f);
  Tensor grad_input = embedding.Backward(grad);
  EXPECT_EQ(grad_input.numel(), 0);  // discrete input: no gradient
  std::vector<Param*> params;
  embedding.CollectParams(params);
  // Row 1 hit twice; rows 0 and 2 untouched.
  EXPECT_FLOAT_EQ(params[0]->grad.at(1, 0), 2.0f);
  EXPECT_FLOAT_EQ(params[0]->grad.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(params[0]->grad.at(2, 1), 0.0f);
}

// ------------------------------------------------------------------- LSTM

TEST(LstmTest, OutputShape) {
  util::Rng rng(7);
  Lstm lstm(4, 6, rng);
  Tensor input = Tensor::Zeros({3, 5, 4});
  Tensor output = lstm.Forward(input);
  EXPECT_EQ(output.shape(), (Tensor::Shape{3, 6}));
}

TEST(LstmTest, HiddenStateIsBounded) {
  util::Rng rng(8);
  Lstm lstm(4, 6, rng);
  Tensor input = Tensor::RandomNormal({1, 10, 4}, rng, 0.0f, 3.0f);
  Tensor output = lstm.Forward(input);
  // h = o * tanh(c): |h| < 1 always.
  for (std::int64_t i = 0; i < output.numel(); ++i) {
    EXPECT_LT(std::abs(output.at(i)), 1.0f);
  }
}

TEST(LstmTest, SequenceOrderMatters) {
  util::Rng rng(9);
  Lstm lstm(2, 4, rng);
  Tensor forward_seq = Tensor::FromVector({1, 3, 2}, {1, 0, 0, 1, 1, 1});
  Tensor reverse_seq = Tensor::FromVector({1, 3, 2}, {1, 1, 0, 1, 1, 0});
  Tensor out1 = lstm.Forward(forward_seq);
  Tensor out2 = lstm.Forward(reverse_seq);
  double diff = 0.0;
  for (std::int64_t i = 0; i < out1.numel(); ++i) {
    diff += std::abs(out1.at(i) - out2.at(i));
  }
  EXPECT_GT(diff, 1e-4);
}

// ------------------------------------------------------------- Sequential

TEST(SequentialTest, ParamLayoutIsDeterministic) {
  auto build = [] {
    util::Rng rng(11);
    Sequential model;
    model.Add(std::make_unique<Linear>(4, 8, rng));
    model.Add(std::make_unique<Relu>());
    model.Add(std::make_unique<Linear>(8, 2, rng));
    return model;
  };
  Sequential a = build();
  Sequential b = build();
  EXPECT_EQ(a.NumParams(), b.NumParams());
  EXPECT_EQ(a.ParamsToFlat(), b.ParamsToFlat());
}

TEST(SequentialTest, FlatRoundTrip) {
  util::Rng rng(12);
  Sequential model;
  model.Add(std::make_unique<Linear>(3, 3, rng));
  std::vector<float> flat = model.ParamsToFlat();
  for (float& value : flat) value += 1.0f;
  model.ParamsFromFlat(flat);
  EXPECT_EQ(model.ParamsToFlat(), flat);
}

TEST(SequentialTest, NumParamsMatchesLayerSum) {
  util::Rng rng(13);
  Sequential model;
  model.Add(std::make_unique<Linear>(4, 8, rng));  // 4*8 + 8
  model.Add(std::make_unique<Linear>(8, 2, rng));  // 8*2 + 2
  EXPECT_EQ(model.NumParams(), 4 * 8 + 8 + 8 * 2 + 2);
}

TEST(SequentialTest, ZeroGradClearsAll) {
  util::Rng rng(14);
  Sequential model;
  model.Add(std::make_unique<Linear>(2, 2, rng));
  Tensor input = Tensor::Full({1, 2}, 1.0f);
  model.Forward(input);
  model.Backward(Tensor::Full({1, 2}, 1.0f));
  model.ZeroGrad();
  std::vector<float> grads = model.GradsToFlat();
  for (float g : grads) EXPECT_EQ(g, 0.0f);
}

TEST(SequentialTest, SummaryListsLayers) {
  util::Rng rng(15);
  Sequential model;
  model.Add(std::make_unique<Linear>(2, 2, rng));
  model.Add(std::make_unique<Relu>());
  std::string summary = model.Summary();
  EXPECT_NE(summary.find("Linear->Relu"), std::string::npos);
  EXPECT_NE(summary.find("params"), std::string::npos);
}

// ------------------------------------------------------------------- Loss

TEST(CrossEntropyTest, PerfectPredictionLowLoss) {
  Tensor logits = Tensor::FromVector({1, 3}, {10.0f, -10.0f, -10.0f});
  CrossEntropyLoss criterion;
  LossResult result = criterion.Compute(logits, {0});
  EXPECT_LT(result.loss, 1e-3f);
  EXPECT_EQ(result.correct, 1);
}

TEST(CrossEntropyTest, UniformLogitsGiveLogK) {
  Tensor logits = Tensor::Zeros({2, 4});
  CrossEntropyLoss criterion;
  LossResult result = criterion.Compute(logits, {1, 2});
  EXPECT_NEAR(result.loss, std::log(4.0f), 1e-5f);
}

TEST(CrossEntropyTest, GradientIsSoftmaxMinusOneHotOverBatch) {
  Tensor logits = Tensor::Zeros({2, 2});
  CrossEntropyLoss criterion;
  LossResult result = criterion.Compute(logits, {0, 1});
  // softmax = 0.5 each; grad = (0.5 - onehot)/2.
  EXPECT_NEAR(result.grad_logits.at(0, 0), -0.25f, 1e-6f);
  EXPECT_NEAR(result.grad_logits.at(0, 1), 0.25f, 1e-6f);
  EXPECT_NEAR(result.grad_logits.at(1, 1), -0.25f, 1e-6f);
}

TEST(CrossEntropyTest, GradSumsToZeroPerRow) {
  util::Rng rng(16);
  Tensor logits = Tensor::RandomNormal({3, 5}, rng);
  CrossEntropyLoss criterion;
  LossResult result = criterion.Compute(logits, {0, 2, 4});
  for (int r = 0; r < 3; ++r) {
    float row_sum = 0.0f;
    for (int c = 0; c < 5; ++c) row_sum += result.grad_logits.at(r, c);
    EXPECT_NEAR(row_sum, 0.0f, 1e-6f);
  }
}

// --------------------------------------------------------------- Residual

TEST(ResidualBlockTest, IdentitySkipPreservesShape) {
  util::Rng rng(18);
  ResidualBlock block(4, 4, 1, 2, rng);
  Tensor input = Tensor::Zeros({2, 4, 8, 8});
  Tensor output = block.Forward(input);
  EXPECT_EQ(output.shape(), input.shape());
}

TEST(ResidualBlockTest, ProjectionChangesShape) {
  util::Rng rng(19);
  ResidualBlock block(4, 8, 2, 2, rng);
  Tensor input = Tensor::Zeros({2, 4, 8, 8});
  Tensor output = block.Forward(input);
  EXPECT_EQ(output.shape(), (Tensor::Shape{2, 8, 4, 4}));
}

TEST(ResidualBlockTest, ParamCountIncludesProjection) {
  util::Rng rng(20);
  ResidualBlock identity_block(4, 4, 1, 2, rng);
  ResidualBlock projection_block(4, 8, 2, 2, rng);
  std::vector<Param*> identity_params, projection_params;
  identity_block.CollectParams(identity_params);
  projection_block.CollectParams(projection_params);
  EXPECT_EQ(identity_params.size(), 8u);     // 2x(conv W,b) + 2x(gn g,b)
  EXPECT_EQ(projection_params.size(), 12u);  // + proj conv + proj gn
}

// ----------------------------------------------------------------- Conv2d

TEST(Conv2dTest, IdentityKernelReproducesInput) {
  util::Rng rng(21);
  Conv2d conv(1, 1, 1, 1, 0, rng);
  std::vector<Param*> params;
  conv.CollectParams(params);
  params[0]->value = Tensor::FromVector({1, 1}, {1.0f});
  params[1]->value = Tensor::Zeros({1});
  Tensor input = Tensor::FromVector({1, 1, 2, 2}, {1, 2, 3, 4});
  Tensor output = conv.Forward(input);
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(output.at(i), input.at(i));
  }
}

TEST(Conv2dTest, OutputGeometry) {
  util::Rng rng(22);
  Conv2d conv(3, 5, 3, 2, 1, rng);
  Tensor input = Tensor::Zeros({2, 3, 9, 9});
  Tensor output = conv.Forward(input);
  EXPECT_EQ(output.shape(), (Tensor::Shape{2, 5, 5, 5}));
}

TEST(Conv2dTest, BiasBroadcastsOverPlane) {
  util::Rng rng(23);
  Conv2d conv(1, 2, 3, 1, 1, rng);
  std::vector<Param*> params;
  conv.CollectParams(params);
  params[0]->value.Fill(0.0f);
  params[1]->value = Tensor::FromVector({2}, {1.5f, -2.5f});
  Tensor input = Tensor::Zeros({1, 1, 4, 4});
  Tensor output = conv.Forward(input);
  EXPECT_FLOAT_EQ(output.at(0), 1.5f);
  EXPECT_FLOAT_EQ(output.at(16), -2.5f);  // second channel plane
}

}  // namespace
}  // namespace fedcross::nn
