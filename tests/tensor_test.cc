#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "tensor/gemm_kernels.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace fedcross {
namespace {

TEST(TensorTest, ZeroInitialised) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.ndim(), 2);
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t.at(i), 0.0f);
}

TEST(TensorTest, EmptyTensor) {
  Tensor t;
  EXPECT_EQ(t.numel(), 0);
  EXPECT_EQ(t.ndim(), 0);
}

TEST(TensorTest, FullFactory) {
  Tensor t = Tensor::Full({4}, 2.5f);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_EQ(t.at(i), 2.5f);
}

TEST(TensorTest, FromVector) {
  Tensor t = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.at(0, 0), 1.0f);
  EXPECT_EQ(t.at(0, 1), 2.0f);
  EXPECT_EQ(t.at(1, 0), 3.0f);
  EXPECT_EQ(t.at(1, 1), 4.0f);
}

TEST(TensorTest, ShapeString) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.ShapeString(), "[2, 3, 4]");
}

TEST(TensorTest, ReshapePreservesData) {
  Tensor t = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  t.Reshape({3, 2});
  EXPECT_EQ(t.at(2, 1), 6.0f);
  EXPECT_EQ(t.dim(0), 3);
}

TEST(TensorTest, DeepCopyOnAssignment) {
  Tensor a = Tensor::Full({2}, 1.0f);
  Tensor b = a;
  b.at(0) = 9.0f;
  EXPECT_EQ(a.at(0), 1.0f);
}

TEST(TensorTest, ElementwiseInPlace) {
  Tensor a = Tensor::FromVector({3}, {1, 2, 3});
  Tensor b = Tensor::FromVector({3}, {4, 5, 6});
  a.AddInPlace(b);
  EXPECT_EQ(a.at(1), 7.0f);
  a.SubInPlace(b);
  EXPECT_EQ(a.at(1), 2.0f);
  a.MulInPlace(b);
  EXPECT_EQ(a.at(2), 18.0f);
  a.Scale(0.5f);
  EXPECT_EQ(a.at(0), 2.0f);
}

TEST(TensorTest, Axpy) {
  Tensor a = Tensor::FromVector({2}, {1, 1});
  Tensor b = Tensor::FromVector({2}, {2, 4});
  a.Axpy(0.5f, b);
  EXPECT_EQ(a.at(0), 2.0f);
  EXPECT_EQ(a.at(1), 3.0f);
}

TEST(TensorTest, Reductions) {
  Tensor t = Tensor::FromVector({4}, {1, -2, 3, -4});
  EXPECT_FLOAT_EQ(t.Sum(), -2.0f);
  EXPECT_FLOAT_EQ(t.Mean(), -0.5f);
  EXPECT_FLOAT_EQ(t.Max(), 3.0f);
  EXPECT_FLOAT_EQ(t.SquaredL2Norm(), 30.0f);
  EXPECT_FLOAT_EQ(t.L2Norm(), std::sqrt(30.0f));
}

// SquaredL2Norm's defining loop, verbatim: one double chain in element
// order.
float SerialSquaredL2Norm(const std::vector<float>& data) {
  double total = 0.0;
  for (float value : data) total += static_cast<double>(value) * value;
  return static_cast<float>(total);
}

std::uint32_t FloatBits(float value) {
  std::uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

Tensor FromValues(const std::vector<float>& values) {
  if (values.empty()) return Tensor();
  return Tensor::FromVector({static_cast<int>(values.size())}, values);
}

void ExpectNormMatchesSerial(const std::vector<float>& values) {
  const Tensor t = FromValues(values);
  ASSERT_EQ(FloatBits(t.SquaredL2Norm()),
            FloatBits(SerialSquaredL2Norm(values)))
      << "n = " << values.size();
}

TEST(SquaredL2NormTest, RandomTensorsMatchSerialLoopBitForBit) {
  util::Rng rng(41);
  const float specials[] = {0.0f,
                            -0.0f,
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            std::numeric_limits<float>::min() / 3.0f,
                            std::numeric_limits<float>::max(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
  const std::size_t lengths[] = {0,  1,   7,    31,    32,     33,
                                 63, 64,  65,   100,   1000,   4099,
                                 23000, 65536, 264000, 300000};
  for (std::size_t n : lengths) {
    for (int trial = 0; trial < 6; ++trial) {
      // Trials 0-2 span magnitudes from subnormal to 2^40; 3 sprinkles
      // zeros, signed zeros and subnormals; 4 a few non-finite values;
      // 5 huge values whose squares overflow float.
      std::vector<float> values(n);
      for (float& v : values) {
        const double exponent =
            trial == 0 ? rng.Uniform(-30.0, 10.0)
                       : (trial == 1 ? rng.Uniform(-149.0, -120.0)
                                     : rng.Uniform(-140.0, 40.0));
        v = static_cast<float>(rng.Normal() * std::exp2(exponent));
        if (trial == 5) v = static_cast<float>(rng.Normal() * 0x1p70);
      }
      if (n > 0 && (trial == 3 || trial == 4)) {
        const int picks = trial == 3 ? 40 : 2;
        for (int k = 0; k < picks; ++k) {
          const std::size_t at = rng.UniformInt(n);
          values[at] = trial == 3 ? specials[rng.UniformInt(5)]
                                  : specials[5 + rng.UniformInt(4)];
        }
      }
      ExpectNormMatchesSerial(values);
    }
  }
}

TEST(SquaredL2NormTest, SumsAtAndBesideFloatMidpointsTakeTheSerialPath) {
  // Values that are powers of two square exactly, and any dyadic total is
  // a sum of such squares: 2^p = (2^(p/2))^2 for even p, two halves of it
  // for odd p. Each target sits on the rounding midpoint above a float f or
  // a few double ulps beside it, where only the serial chain's own rounding
  // decides the float.
  auto squares_summing_to = [](double target, std::vector<float>& out) {
    for (int p = 200; p >= -290; --p) {
      const double bit = std::ldexp(1.0, p);
      if (target < bit) continue;
      target -= bit;
      if (p % 2 == 0) {
        out.push_back(static_cast<float>(std::ldexp(1.0, p / 2)));
      } else {
        const float half = static_cast<float>(std::ldexp(1.0, (p - 1) / 2));
        out.push_back(half);
        out.push_back(half);
      }
    }
    ASSERT_EQ(target, 0.0);
  };
  util::Rng rng(43);
  int cases = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const float f = static_cast<float>(std::ldexp(
        rng.Uniform(1.0, 2.0), static_cast<int>(rng.UniformInt(60)) - 30));
    const double mid =
        (static_cast<double>(f) + std::nextafter(f, 2.0f * f)) * 0.5;
    for (int ulps = -3; ulps <= 3; ++ulps) {
      double target = mid;
      for (int k = 0; k < std::abs(ulps); ++k) {
        target = std::nextafter(target, ulps < 0 ? 0.0 : 2.0 * mid);
      }
      std::vector<float> values;
      squares_summing_to(target, values);
      // Pad with zeros and with squares far below the total's double ulp:
      // the serial chain drops each of those, summed in lanes they add up.
      const std::size_t pad = rng.UniformInt(400);
      const float tiny =
          static_cast<float>(std::ldexp(1.0, std::ilogb(mid) / 2 - 28));
      for (std::size_t k = 0; k < pad; ++k) {
        values.push_back(trial % 2 == 0 ? 0.0f : tiny);
      }
      rng.Shuffle(values);
      if (trial % 3 == 0) {
        // Big terms first, so the serial chain drops every tiny one.
        std::stable_sort(values.begin(), values.end(),
                         [](float a, float b) { return a > b; });
      }
      ExpectNormMatchesSerial(values);
      ++cases;
    }
  }
  EXPECT_EQ(cases, 1400);
}

TEST(TensorTest, OutOfPlaceOperators) {
  Tensor a = Tensor::FromVector({2}, {1, 2});
  Tensor b = Tensor::FromVector({2}, {3, 4});
  Tensor sum = a + b;
  Tensor diff = a - b;
  Tensor scaled = 2.0f * a;
  EXPECT_EQ(sum.at(0), 4.0f);
  EXPECT_EQ(diff.at(1), -2.0f);
  EXPECT_EQ(scaled.at(1), 4.0f);
  // Operands untouched.
  EXPECT_EQ(a.at(0), 1.0f);
}

TEST(TensorTest, RandomNormalStatistics) {
  util::Rng rng(1);
  Tensor t = Tensor::RandomNormal({10000}, rng, 1.0f, 2.0f);
  EXPECT_NEAR(t.Mean(), 1.0f, 0.1f);
  float var = t.SquaredL2Norm() / t.numel() - t.Mean() * t.Mean();
  EXPECT_NEAR(var, 4.0f, 0.3f);
}

TEST(TensorTest, RandomUniformBounds) {
  util::Rng rng(2);
  Tensor t = Tensor::RandomUniform({1000}, rng, -0.5f, 0.5f);
  EXPECT_LE(t.Max(), 0.5f);
  EXPECT_GE(-t.Max() - 1.0f, -1.5f);
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_GE(t.at(i), -0.5f);
}

TEST(TensorTest, SerializeRoundTrip) {
  Tensor original = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  std::vector<std::uint8_t> bytes;
  original.SerializeTo(bytes);

  std::size_t offset = 0;
  Tensor restored;
  ASSERT_TRUE(Tensor::DeserializeFrom(bytes, offset, restored));
  EXPECT_EQ(offset, bytes.size());
  ASSERT_TRUE(restored.SameShape(original));
  for (std::int64_t i = 0; i < original.numel(); ++i) {
    EXPECT_EQ(restored.at(i), original.at(i));
  }
}

TEST(TensorTest, SerializeMultipleTensors) {
  Tensor a = Tensor::Full({2}, 1.0f);
  Tensor b = Tensor::Full({3}, 2.0f);
  std::vector<std::uint8_t> bytes;
  a.SerializeTo(bytes);
  b.SerializeTo(bytes);
  std::size_t offset = 0;
  Tensor ra, rb;
  ASSERT_TRUE(Tensor::DeserializeFrom(bytes, offset, ra));
  ASSERT_TRUE(Tensor::DeserializeFrom(bytes, offset, rb));
  EXPECT_EQ(ra.numel(), 2);
  EXPECT_EQ(rb.numel(), 3);
  EXPECT_EQ(rb.at(0), 2.0f);
}

TEST(TensorTest, DeserializeRejectsTruncated) {
  Tensor t = Tensor::Full({4}, 1.0f);
  std::vector<std::uint8_t> bytes;
  t.SerializeTo(bytes);
  bytes.resize(bytes.size() - 3);
  std::size_t offset = 0;
  Tensor restored;
  EXPECT_FALSE(Tensor::DeserializeFrom(bytes, offset, restored));
}

TEST(TensorTest, DeserializeIntoRecycledTensorAllocatesNothing) {
  // DeserializeFrom reads straight into the destination's storage via
  // ResizeTo, so deserializing into a tensor that already has the capacity
  // must not touch the heap (no staging copy, no reallocation).
  Tensor original = Tensor::Full({8, 4}, 3.5f);
  std::vector<std::uint8_t> bytes;
  original.SerializeTo(bytes);

  Tensor recycled = Tensor::Zeros({8, 4});
  std::size_t offset = 0;
  Tensor::ResetHeapAllocations();
  ASSERT_TRUE(Tensor::DeserializeFrom(bytes, offset, recycled));
  EXPECT_EQ(Tensor::HeapAllocations(), 0u);
  for (std::int64_t i = 0; i < original.numel(); ++i) {
    EXPECT_EQ(recycled.at(i), 3.5f);
  }
}

// -------------------------------------------------------------- ops::Gemm

TEST(GemmTest, PlainMatMul) {
  // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2, 2}, {5, 6, 7, 8});
  Tensor c = ops::MatMul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
}

TEST(GemmTest, RectangularShapes) {
  Tensor a = Tensor::FromVector({1, 3}, {1, 2, 3});
  Tensor b = Tensor::FromVector({3, 2}, {1, 0, 0, 1, 1, 1});
  Tensor c = ops::MatMul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 5.0f);
}

// Reference GEMM for randomized comparison.
void NaiveGemm(bool trans_a, bool trans_b, int m, int n, int k,
               const std::vector<float>& a, const std::vector<float>& b,
               std::vector<float>& c) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int p = 0; p < k; ++p) {
        float av = trans_a ? a[p * m + i] : a[i * k + p];
        float bv = trans_b ? b[j * k + p] : b[p * n + j];
        acc += static_cast<double>(av) * bv;
      }
      c[i * n + j] = static_cast<float>(acc);
    }
  }
}

struct GemmCase {
  bool trans_a;
  bool trans_b;
};

class GemmTransposeTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmTransposeTest, MatchesNaive) {
  GemmCase config = GetParam();
  util::Rng rng(99);
  int m = 5, n = 7, k = 4;
  std::vector<float> a(m * k), b(k * n), expected(m * n), actual(m * n, 0.0f);
  for (float& value : a) value = static_cast<float>(rng.Normal());
  for (float& value : b) value = static_cast<float>(rng.Normal());

  NaiveGemm(config.trans_a, config.trans_b, m, n, k, a, b, expected);
  int lda = config.trans_a ? m : k;
  int ldb = config.trans_b ? k : n;
  ops::Gemm(config.trans_a, config.trans_b, m, n, k, 1.0f, a.data(), lda,
            b.data(), ldb, 0.0f, actual.data(), n);
  for (int i = 0; i < m * n; ++i) EXPECT_NEAR(actual[i], expected[i], 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(AllTransposes, GemmTransposeTest,
                         ::testing::Values(GemmCase{false, false},
                                           GemmCase{true, false},
                                           GemmCase{false, true},
                                           GemmCase{true, true}));

TEST(GemmTest, AlphaBetaAccumulate) {
  int m = 2, n = 2, k = 2;
  std::vector<float> a = {1, 0, 0, 1};
  std::vector<float> b = {1, 2, 3, 4};
  std::vector<float> c = {10, 10, 10, 10};
  ops::Gemm(false, false, m, n, k, 2.0f, a.data(), k, b.data(), n, 1.0f,
            c.data(), n);
  EXPECT_FLOAT_EQ(c[0], 12.0f);
  EXPECT_FLOAT_EQ(c[3], 18.0f);
}

// ------------------------------------------- the GEMM arithmetic contract

// Restores startup tier detection when a test that pins a tier ends.
struct SimdTierGuard {
  ~SimdTierGuard() { ops::testing::ResetForcedSimdTier(); }
};

// The tiers this build and CPU can run, each pinned in turn.
std::vector<ops::SimdTier> AvailableTiers() {
  std::vector<ops::SimdTier> tiers;
  for (ops::SimdTier tier : {ops::SimdTier::kGeneric, ops::SimdTier::kAvx2,
                             ops::SimdTier::kAvx512}) {
    if (ops::testing::ForceSimdTier(tier)) tiers.push_back(tier);
  }
  ops::testing::ResetForcedSimdTier();
  return tiers;
}

// A tier's multiply-add: fused iff the tier has FMA. The avx2 and avx512
// tiers always do; the generic tier is compiled with this file's flags, so
// it has FMA exactly when this translation unit does. The unfused form
// rounds the product through a volatile, so no contraction can fuse it.
bool TierFuses(ops::SimdTier tier) {
#if defined(__FMA__)
  (void)tier;
  return true;
#else
  return tier != ops::SimdTier::kGeneric;
#endif
}

float ModelMAddF(bool fused, float a, float b, float c) {
  if (fused) return std::fma(a, b, c);
  volatile float product = a * b;
  return product + c;
}

// The scalar model of ops::Gemm: the beta pass, then the rule m*n*k picks.
//  * small, untransposed B: per element c = MAddF(alpha * a, b, c) in
//    ascending p, seeded with C;
//  * small, transposed B: a double chain t += a * b from zero (a product of
//    floats is exact in double, so fusing it changes nothing), then
//    c = MAddF(alpha, (float)t, c);
//  * blocked: per kKc panel a float chain acc = MAddF(a, b, acc) from zero,
//    then c += acc (alpha == 1) or c = MAddF(alpha, acc, c).
void ModelGemm(bool fused, bool trans_a, bool trans_b, int m, int n, int k,
               float alpha, const float* a, int lda, const float* b, int ldb,
               float beta, float* c, int ldc) {
  auto op_a = [&](int i, int p) {
    return trans_a ? a[static_cast<std::int64_t>(p) * lda + i]
                   : a[static_cast<std::int64_t>(i) * lda + p];
  };
  auto op_b = [&](int p, int j) {
    return trans_b ? b[static_cast<std::int64_t>(j) * ldb + p]
                   : b[static_cast<std::int64_t>(p) * ldb + j];
  };
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float& cij = c[static_cast<std::int64_t>(i) * ldc + j];
      if (beta == 0.0f) {
        cij = 0.0f;
      } else if (beta != 1.0f) {
        cij *= beta;
      }
    }
  }
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0f) return;
  const bool small =
      static_cast<std::int64_t>(m) * n * k <= ops::detail::kSmallGemmOps;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float& cij = c[static_cast<std::int64_t>(i) * ldc + j];
      if (small && !trans_b) {
        for (int p = 0; p < k; ++p) {
          cij = ModelMAddF(fused, alpha * op_a(i, p), op_b(p, j), cij);
        }
      } else if (small) {
        double t = 0.0;
        for (int p = 0; p < k; ++p) {
          t += static_cast<double>(op_a(i, p)) * op_b(p, j);
        }
        cij = ModelMAddF(fused, alpha, static_cast<float>(t), cij);
      } else {
        for (int pc = 0; pc < k; pc += ops::detail::kKc) {
          float acc = 0.0f;
          for (int p = pc; p < std::min(k, pc + ops::detail::kKc); ++p) {
            acc = ModelMAddF(fused, op_a(i, p), op_b(p, j), acc);
          }
          cij = alpha == 1.0f ? cij + acc : ModelMAddF(fused, alpha, acc, cij);
        }
      }
    }
  }
}

std::vector<float> NormalVector(std::size_t n, util::Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.Normal());
  return v;
}

bool SameBytes(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

struct GemmShape {
  int m, n, k;
};

// Both sides of kSmallGemmOps (16 * 1024) and of kKc (256), ragged m and n
// against the 4 x 16 micro-tile and the 8-lane C tiles, and m on both sides
// of the pack-free line.
const GemmShape kContractShapes[] = {
    {5, 7, 4},     {16, 32, 32},  {16, 32, 33},  {8, 8, 256},
    {8, 8, 257},   {5, 17, 256},  {5, 17, 257},  {3, 13, 520},
    {13, 29, 64},  {8, 27, 64},   {32, 288, 4},  {72, 320, 8},
    {260, 20, 8},  {257, 33, 70}, {1, 300, 300}, {300, 1, 60},
};

TEST(GemmContractTest, GemmMatchesItsRuleModelOnEveryTier) {
  SimdTierGuard guard;
  util::Rng rng(404);
  int cases = 0;
  for (ops::SimdTier tier : AvailableTiers()) {
    ASSERT_TRUE(ops::testing::ForceSimdTier(tier));
    const bool fused = TierFuses(tier);
    for (const GemmShape& s : kContractShapes) {
      for (int transposes = 0; transposes < 4; ++transposes) {
        const bool trans_a = (transposes & 1) != 0;
        const bool trans_b = (transposes & 2) != 0;
        // Padded leading dimensions of the stored matrices.
        const int lda = (trans_a ? s.m : s.k) + 3;
        const int ldb = (trans_b ? s.k : s.n) + 5;
        const int ldc = s.n + 2;
        const std::vector<float> a =
            NormalVector(static_cast<std::size_t>(trans_a ? s.k : s.m) * lda,
                         rng);
        const std::vector<float> b =
            NormalVector(static_cast<std::size_t>(trans_b ? s.n : s.k) * ldb,
                         rng);
        const std::vector<float> c0 =
            NormalVector(static_cast<std::size_t>(s.m) * ldc, rng);
        for (float alpha : {1.0f, 0.5f}) {
          for (float beta : {0.0f, 1.0f, 0.5f}) {
            std::vector<float> got = c0, want = c0;
            ops::Gemm(trans_a, trans_b, s.m, s.n, s.k, alpha, a.data(), lda,
                      b.data(), ldb, beta, got.data(), ldc);
            ModelGemm(fused, trans_a, trans_b, s.m, s.n, s.k, alpha, a.data(),
                      lda, b.data(), ldb, beta, want.data(), ldc);
            EXPECT_TRUE(SameBytes(got, want))
                << ops::SimdTierName(tier) << " m=" << s.m << " n=" << s.n
                << " k=" << s.k << " ta=" << trans_a << " tb=" << trans_b
                << " alpha=" << alpha << " beta=" << beta;
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_GE(cases, 16 * 4 * 6);
}

TEST(GemmContractTest, DirectScheduleWritesTheBlockedKernelsBytes) {
  util::Rng rng(405);
  int cases = 0;
  for (ops::SimdTier tier : AvailableTiers()) {
    const ops::detail::GemmKernels& kernels =
        ops::detail::TierGemmKernels(tier);
    for (const GemmShape& s : kContractShapes) {
      for (bool trans_a : {false, true}) {
        const int lda = (trans_a ? s.m : s.k) + 3;
        const int ldb = s.n + 5;
        const int ldc = s.n + 2;
        const std::vector<float> a = NormalVector(
            static_cast<std::size_t>(trans_a ? s.k : s.m) * lda, rng);
        const std::vector<float> b =
            NormalVector(static_cast<std::size_t>(s.k) * ldb, rng);
        const std::vector<float> c0 =
            NormalVector(static_cast<std::size_t>(s.m) * ldc, rng);
        for (float alpha : {1.0f, 0.5f}) {
          std::vector<float> direct = c0, blocked = c0;
          kernels.gemm_direct(trans_a, s.m, s.n, s.k, alpha, a.data(), lda,
                              b.data(), ldb, direct.data(), ldc);
          kernels.gemm_blocked(trans_a, false, s.m, s.n, s.k, alpha, a.data(),
                               lda, b.data(), ldb, blocked.data(), ldc);
          EXPECT_TRUE(SameBytes(direct, blocked))
              << ops::SimdTierName(tier) << " m=" << s.m << " n=" << s.n
              << " k=" << s.k << " ta=" << trans_a << " alpha=" << alpha;
          ++cases;
        }
      }
    }
  }
  EXPECT_GE(cases, 16 * 2 * 2);
}

// The conv weight-gradient shapes (m = out_channels, n = patch, k = out
// area) of the fcbench CNN and ResNet-8, on both sides of kSmallGemmOps,
// plus ragged tiles and a k past kKc.
const GemmShape kImageShapes[] = {
    {8, 27, 64},  {8, 72, 64},  {16, 72, 16}, {16, 144, 16}, {16, 8, 16},
    {32, 144, 4}, {32, 288, 4}, {32, 16, 4},  {16, 75, 64},  {32, 400, 16},
    {5, 13, 7},   {13, 29, 300}, {9, 3, 2},   {1, 1, 1},     {12, 5, 280},
};

TEST(GemmContractTest, AccumulatedImagesWriteThePerImageLoopsBytes) {
  SimdTierGuard guard;
  util::Rng rng(406);
  int cases = 0;
  for (ops::SimdTier tier : AvailableTiers()) {
    ASSERT_TRUE(ops::testing::ForceSimdTier(tier));
    for (const GemmShape& s : kImageShapes) {
      for (int images = 1; images <= 10; ++images) {
        // B as the plan lays columns out: side by side in one wide matrix
        // (image b at column b*k) or one padded block per image.
        for (bool wide : {false, true}) {
          const int lda = s.k + 1;
          const std::int64_t a_stride = static_cast<std::int64_t>(s.m) * lda + 3;
          const int ldb = wide ? images * s.k : s.k + 2;
          const std::int64_t b_stride =
              wide ? s.k : static_cast<std::int64_t>(s.n) * ldb;
          const int ldc = s.n + 1;
          const std::vector<float> a = NormalVector(
              static_cast<std::size_t>(a_stride) * images, rng);
          const std::vector<float> b = NormalVector(
              static_cast<std::size_t>(wide ? s.n * ldb : b_stride * images),
              rng);
          const std::vector<float> c0 =
              NormalVector(static_cast<std::size_t>(s.m) * ldc, rng);
          std::vector<float> batched = c0, looped = c0;
          ops::GemmAccumulateImages(images, s.m, s.n, s.k, a.data(), lda,
                                    a_stride, b.data(), ldb, b_stride,
                                    batched.data(), ldc);
          for (int img = 0; img < images; ++img) {
            ops::Gemm(false, true, s.m, s.n, s.k, 1.0f,
                      a.data() + img * a_stride, lda,
                      b.data() + img * b_stride, ldb, 1.0f, looped.data(),
                      ldc);
          }
          EXPECT_TRUE(SameBytes(batched, looped))
              << ops::SimdTierName(tier) << " m=" << s.m << " n=" << s.n
              << " k=" << s.k << " images=" << images << " wide=" << wide;
          ++cases;
        }
      }
    }
  }
  EXPECT_GE(cases, 15 * 10 * 2);
}

// ----------------------------------------------------------- Im2Col etc.

TEST(ConvOutSizeTest, StandardArithmetic) {
  EXPECT_EQ(ops::ConvOutSize(16, 3, 1, 1), 16);
  EXPECT_EQ(ops::ConvOutSize(16, 2, 2, 0), 8);
  EXPECT_EQ(ops::ConvOutSize(16, 5, 1, 2), 16);
  EXPECT_EQ(ops::ConvOutSize(16, 3, 2, 1), 8);
  EXPECT_EQ(ops::ConvOutSize(1, 3, 1, 1), 1);  // window exactly fits
}

TEST(ConvOutSizeDeathTest, RejectsWindowLargerThanPaddedInput) {
  // (2 + 2 - 5) / 2 truncates to 0, which used to come out as 1 pixel whose
  // window reaches past the padded input.
  EXPECT_DEATH(ops::ConvOutSize(2, 5, 2, 1), "conv window larger");
  EXPECT_DEATH(ops::ConvOutSize(1, 2, 2, 0), "conv window larger");
}

// The per-element lowering the bordered Im2Col/Col2Im replaced: the
// reference every fast path must reproduce byte for byte.
void ReferenceIm2Col(const float* image, int channels, int height, int width,
                     int kernel, int stride, int pad, float* columns) {
  int out_h = ops::ConvOutSize(height, kernel, stride, pad);
  int out_w = ops::ConvOutSize(width, kernel, stride, pad);
  int out_area = out_h * out_w;
  for (int c = 0; c < channels; ++c) {
    const float* channel = image + c * height * width;
    for (int kh = 0; kh < kernel; ++kh) {
      for (int kw = 0; kw < kernel; ++kw) {
        float* out_row = columns + ((c * kernel + kh) * kernel + kw) * out_area;
        for (int oh = 0; oh < out_h; ++oh) {
          int ih = oh * stride - pad + kh;
          for (int ow = 0; ow < out_w; ++ow) {
            int iw = ow * stride - pad + kw;
            bool inside = ih >= 0 && ih < height && iw >= 0 && iw < width;
            out_row[oh * out_w + ow] = inside ? channel[ih * width + iw] : 0.0f;
          }
        }
      }
    }
  }
}

// Accumulates into `image`, which the caller pre-zeroes.
void ReferenceCol2Im(const float* columns, int channels, int height, int width,
                     int kernel, int stride, int pad, float* image) {
  int out_h = ops::ConvOutSize(height, kernel, stride, pad);
  int out_w = ops::ConvOutSize(width, kernel, stride, pad);
  int out_area = out_h * out_w;
  for (int c = 0; c < channels; ++c) {
    float* channel = image + c * height * width;
    for (int kh = 0; kh < kernel; ++kh) {
      for (int kw = 0; kw < kernel; ++kw) {
        const float* in_row =
            columns + ((c * kernel + kh) * kernel + kw) * out_area;
        for (int oh = 0; oh < out_h; ++oh) {
          int ih = oh * stride - pad + kh;
          if (ih < 0 || ih >= height) continue;
          for (int ow = 0; ow < out_w; ++ow) {
            int iw = ow * stride - pad + kw;
            if (iw >= 0 && iw < width) {
              channel[ih * width + iw] += in_row[oh * out_w + ow];
            }
          }
        }
      }
    }
  }
}

struct LoweringCase {
  int channels, height, width, kernel, stride, pad;
};

// Channels {1, 3, 16} x sizes 1-9 and 16 x kernels {1, 3, 5} x strides
// {1, 2, 3} x pads {0, 1, 2}, on square images (the specialised copies) and
// on images one row taller (the generic fallback, which also keeps a
// row/column mix-up from hiding). Windows larger than the padded input are
// skipped: ConvOutSize rejects them.
std::vector<LoweringCase> LoweringGrid() {
  std::vector<LoweringCase> grid;
  for (int channels : {1, 3, 16}) {
    for (int size : {1, 2, 3, 4, 5, 6, 7, 8, 9, 16}) {
      for (int kernel : {1, 3, 5}) {
        for (int stride : {1, 2, 3}) {
          for (int pad : {0, 1, 2}) {
            if (kernel > size + 2 * pad) continue;
            for (int extra_row : {0, 1}) {
              grid.push_back(
                  {channels, size + extra_row, size, kernel, stride, pad});
            }
          }
        }
      }
    }
  }
  return grid;
}

TEST(ConvLoweringTest, MatchesPerElementReferenceOverShapeGrid) {
  const float kSentinel = -123.0f;
  const float kGarbage = std::numeric_limits<float>::quiet_NaN();
  util::Rng rng(17);
  // (out_w, stride) of every square output: the specialisation keys.
  std::set<std::pair<int, int>> square;
  const std::vector<LoweringCase> grid = LoweringGrid();
  EXPECT_GT(grid.size(), 1000u);
  for (const LoweringCase& t : grid) {
    const int out_h = ops::ConvOutSize(t.height, t.kernel, t.stride, t.pad);
    const int out_w = ops::ConvOutSize(t.width, t.kernel, t.stride, t.pad);
    const int area = out_h * out_w;
    const int rows = t.channels * t.kernel * t.kernel;
    if (out_h == out_w) square.insert({out_w, t.stride});
    const std::string shape =
        "c=" + std::to_string(t.channels) + " h=" + std::to_string(t.height) +
        " w=" + std::to_string(t.width) + " k=" + std::to_string(t.kernel) +
        " s=" + std::to_string(t.stride) + " p=" + std::to_string(t.pad);
    std::vector<float> image = NormalVector(
        static_cast<std::size_t>(t.channels) * t.height * t.width, rng);
    std::vector<float> want(static_cast<std::size_t>(rows) * area);
    ReferenceIm2Col(image.data(), t.channels, t.height, t.width, t.kernel,
                    t.stride, t.pad, want.data());

    // Dense rows.
    std::vector<float> got(want.size(), kSentinel);
    ops::Im2Col(image.data(), t.channels, t.height, t.width, t.kernel,
                t.kernel, t.stride, t.pad, got.data());
    ASSERT_TRUE(SameBytes(got, want)) << "Im2Col " << shape;

    // Strided rows (image 1 of 3 in a batch-wide matrix): only this image's
    // column block is written.
    const std::int64_t ld = 3 * area;
    std::vector<float> wide(static_cast<std::size_t>(rows) * ld, kSentinel);
    ops::Im2Col(image.data(), t.channels, t.height, t.width, t.kernel,
                t.kernel, t.stride, t.pad, wide.data() + area, ld);
    for (int r = 0; r < rows; ++r) {
      for (std::int64_t e = 0; e < ld; ++e) {
        const bool mine = e >= area && e < 2 * area;
        const float expect = mine ? want[r * area + e - area] : kSentinel;
        ASSERT_EQ(std::memcmp(&wide[r * ld + e], &expect, sizeof(float)), 0)
            << "strided Im2Col " << shape << " row " << r << " col " << e;
      }
    }

    // Col2Im from dense and strided columns, into non-zero images.
    std::vector<float> columns = NormalVector(want.size(), rng);
    std::vector<float> back(image.size(), 0.0f);
    ReferenceCol2Im(columns.data(), t.channels, t.height, t.width, t.kernel,
                    t.stride, t.pad, back.data());
    std::vector<float> dense(image.size(), kGarbage);
    ops::Col2Im(columns.data(), t.channels, t.height, t.width, t.kernel,
                t.kernel, t.stride, t.pad, dense.data());
    ASSERT_TRUE(SameBytes(dense, back)) << "Col2Im " << shape;
    for (int r = 0; r < rows; ++r) {
      std::memcpy(wide.data() + r * ld + area, columns.data() + r * area,
                  area * sizeof(float));
    }
    std::vector<float> strided(image.size(), kGarbage);
    ops::Col2Im(wide.data() + area, t.channels, t.height, t.width, t.kernel,
                t.kernel, t.stride, t.pad, strided.data(), ld);
    ASSERT_TRUE(SameBytes(strided, back)) << "strided Col2Im " << shape;
  }
  // Every specialisation ran (widths 8/4/2 at stride 1, 4/2 at stride 2),
  // and the generic fallback on square outputs next to them (width 1, odd
  // widths, 16 at stride 1, 8 at stride 2, stride 3) as well as on the
  // non-square ones.
  for (int w : {2, 4, 8}) {
    EXPECT_EQ(square.count({w, 1}), 1u) << "width " << w << " stride 1";
  }
  for (int w : {2, 4}) {
    EXPECT_EQ(square.count({w, 2}), 1u) << "width " << w << " stride 2";
  }
  for (std::pair<int, int> fallback :
       {std::pair<int, int>{1, 1}, {3, 1}, {16, 1}, {1, 2}, {8, 2}, {2, 3}}) {
    EXPECT_EQ(square.count(fallback), 1u)
        << "fallback width " << fallback.first << " stride "
        << fallback.second;
  }
}

TEST(Col2ImTest, OverwritesNonZeroImage) {
  // 1 channel, 2x2 image, 1x1 kernel: Col2Im is a plain copy, so every
  // stale pixel must be replaced rather than added to.
  std::vector<float> columns = {1, 2, 3, 4};
  std::vector<float> image = {100, -100, 7, 8};
  ops::Col2Im(columns.data(), 1, 2, 2, 1, 1, 1, 0, image.data());
  EXPECT_EQ(image, columns);
  // Padded windows: the border sums are dropped, the interior overwritten.
  std::vector<float> ones(9, 1.0f);  // 1x1 image, 3x3 kernel, pad 1
  std::vector<float> pixel = {50.0f};
  ops::Col2Im(ones.data(), 1, 1, 1, 3, 3, 1, 1, pixel.data());
  EXPECT_EQ(pixel[0], 1.0f);
}

TEST(Im2ColTest, IdentityKernel) {
  // 1x1 kernel, stride 1, no pad: columns == image.
  std::vector<float> image = {1, 2, 3, 4};
  std::vector<float> columns(4);
  ops::Im2Col(image.data(), 1, 2, 2, 1, 1, 1, 0, columns.data());
  EXPECT_EQ(columns, image);
}

TEST(Im2ColTest, PaddingProducesZeros) {
  std::vector<float> image = {1.0f};
  // 1x1 image, 3x3 kernel, pad 1 => 1 output pixel, 9 patch rows.
  std::vector<float> columns(9, -1.0f);
  ops::Im2Col(image.data(), 1, 1, 1, 3, 3, 1, 1, columns.data());
  for (int i = 0; i < 9; ++i) {
    EXPECT_FLOAT_EQ(columns[i], i == 4 ? 1.0f : 0.0f);
  }
}

TEST(Col2ImTest, AdjointOfIm2Col) {
  // <Im2Col(x), y> == <x, Col2Im(y)> (adjoint property).
  util::Rng rng(5);
  int c = 2, h = 4, w = 4, kernel = 3, stride = 1, pad = 1;
  int out_h = ops::ConvOutSize(h, kernel, stride, pad);
  int out_w = ops::ConvOutSize(w, kernel, stride, pad);
  int cols_size = c * kernel * kernel * out_h * out_w;

  std::vector<float> x(c * h * w), y(cols_size);
  for (float& value : x) value = static_cast<float>(rng.Normal());
  for (float& value : y) value = static_cast<float>(rng.Normal());

  std::vector<float> cols(cols_size);
  ops::Im2Col(x.data(), c, h, w, kernel, kernel, stride, pad, cols.data());
  double lhs = 0.0;
  for (int i = 0; i < cols_size; ++i) lhs += static_cast<double>(cols[i]) * y[i];

  std::vector<float> back(c * h * w, 0.0f);
  ops::Col2Im(y.data(), c, h, w, kernel, kernel, stride, pad, back.data());
  double rhs = 0.0;
  for (int i = 0; i < c * h * w; ++i) rhs += static_cast<double>(x[i]) * back[i];

  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(SoftmaxTest, RowsSumToOne) {
  Tensor logits = Tensor::FromVector({2, 3}, {1, 2, 3, -1, 0, 1});
  ops::SoftmaxRows(logits);
  for (int r = 0; r < 2; ++r) {
    float total = 0.0f;
    for (int c = 0; c < 3; ++c) total += logits.at(r, c);
    EXPECT_NEAR(total, 1.0f, 1e-6f);
  }
}

TEST(SoftmaxTest, NumericallyStableWithLargeLogits) {
  Tensor logits = Tensor::FromVector({1, 3}, {1000.0f, 1000.0f, 999.0f});
  ops::SoftmaxRows(logits);
  EXPECT_FALSE(std::isnan(logits.at(0, 0)));
  EXPECT_GT(logits.at(0, 0), logits.at(0, 2));
}

TEST(ArgMaxRowTest, FindsMax) {
  Tensor t = Tensor::FromVector({2, 3}, {1, 5, 2, 9, 0, 3});
  EXPECT_EQ(ops::ArgMaxRow(t, 0), 1);
  EXPECT_EQ(ops::ArgMaxRow(t, 1), 0);
}

TEST(CosineSimilarityTest, KnownValues) {
  EXPECT_NEAR(ops::CosineSimilarity({1, 0}, {1, 0}), 1.0, 1e-9);
  EXPECT_NEAR(ops::CosineSimilarity({1, 0}, {0, 1}), 0.0, 1e-9);
  EXPECT_NEAR(ops::CosineSimilarity({1, 1}, {-1, -1}), -1.0, 1e-9);
}

TEST(CosineSimilarityTest, ZeroVectorYieldsZero) {
  EXPECT_EQ(ops::CosineSimilarity({0, 0}, {1, 2}), 0.0);
}

TEST(CosineSimilarityTest, ScaleInvariant) {
  std::vector<float> x = {1, 2, 3};
  std::vector<float> y = {4, -1, 2};
  std::vector<float> y2 = {8, -2, 4};
  EXPECT_NEAR(ops::CosineSimilarity(x, y), ops::CosineSimilarity(x, y2),
              1e-9);
}

}  // namespace
}  // namespace fedcross
