// Wire-codec unit tests (comm/wire.h): frame round-trips for every scheme
// over every model-zoo architecture, the lossless guarantee of the delta
// codec on arbitrary bit patterns, the bounded-error + error-feedback
// contract of the quantized schemes, deterministic top-k tie-breaking,
// rejection of malformed / truncated / CRC-corrupt frames, and a
// deterministic mutation fuzz of both decoders.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "comm/wire.h"
#include "models/model_zoo.h"
#include "nn/sequential.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace fedcross::comm {
namespace {

using Frame = std::vector<std::uint8_t>;

// Flattens a model the same way the FL layer does: parameters in
// Params() order, shape table alongside.
void FlattenModel(nn::Sequential& model, std::vector<float>& flat,
                  ShapeTable& shapes) {
  flat.clear();
  shapes.clear();
  for (const nn::Param* param : model.Params()) {
    auto numel = static_cast<std::size_t>(param->value.numel());
    shapes.push_back(static_cast<std::uint32_t>(numel));
    const float* data = param->value.data();
    flat.insert(flat.end(), data, data + numel);
  }
}

// A small instance of every paper architecture; the codec must be agnostic
// to the tensor layout, so each family exercises a different shape table.
std::vector<models::ModelFactory> ZooFactories() {
  std::vector<models::ModelFactory> factories;
  models::CnnConfig cnn;
  cnn.height = cnn.width = 8;
  cnn.conv1_channels = 4;
  cnn.conv2_channels = 8;
  cnn.fc_dim = 16;
  factories.push_back(models::MakeCnn(cnn));
  models::ResNetConfig resnet;
  resnet.height = resnet.width = 8;
  resnet.base_width = 4;
  resnet.gn_groups = 2;
  factories.push_back(models::MakeResNet(resnet));
  models::VggConfig vgg;
  vgg.height = vgg.width = 8;
  vgg.base_width = 4;
  vgg.fc_dim = 16;
  factories.push_back(models::MakeVgg(vgg));
  models::LstmConfig lstm;
  lstm.vocab_size = 12;
  lstm.embed_dim = 6;
  lstm.hidden_dim = 8;
  lstm.num_classes = 12;
  factories.push_back(models::MakeLstm(lstm));
  return factories;
}

std::vector<float> Perturbed(const std::vector<float>& reference,
                             std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> out = reference;
  for (float& v : out) v += static_cast<float>(rng.Normal(0.0, 0.02));
  return out;
}

void ExpectBitIdentical(const std::vector<float>& a,
                        const std::vector<float>& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

// Rewrites the trailing CRC so body/header mutations exercise the decoder's
// structural checks instead of tripping the CRC gate first.
void FixCrc(Frame& frame) {
  std::uint32_t crc = Crc32({frame.data(), frame.size() - 4});
  std::memcpy(frame.data() + frame.size() - 4, &crc, 4);
}

// Offset of the u64 body-length field: fixed header + the shape table.
std::size_t BodyLenOffset(const ShapeTable& shapes) {
  return 8 + 4 + 4 * shapes.size() + 8;
}

Frame EncodeSimpleUpload(Scheme scheme, const std::vector<float>& trained,
                         const std::vector<float>& reference,
                         const ShapeTable& shapes, double fraction = 0.25) {
  CodecOptions options;
  options.scheme = scheme;
  options.topk_fraction = fraction;
  std::vector<float> residual;
  util::Rng rng(99);
  Frame frame;
  EncodeUpload(options, trained, reference, shapes, residual, rng, frame);
  return frame;
}

// --- helpers ---------------------------------------------------------------

TEST(WireHelpersTest, Crc32KnownAnswers) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32({reinterpret_cast<const std::uint8_t*>(check.data()),
                   check.size()}),
            0xCBF43926u);
  EXPECT_EQ(Crc32({static_cast<const std::uint8_t*>(nullptr), 0}), 0u);
}

// The textbook bitwise CRC-32 register update, one byte at a time. The
// checksum of a buffer is ~register after its last byte, starting from
// 0xffffffff.
std::uint32_t ReferenceCrc32Step(std::uint32_t crc, std::uint8_t byte) {
  crc ^= byte;
  for (int bit = 0; bit < 8; ++bit) {
    crc = (crc >> 1) ^ (0xedb88320u & (0u - (crc & 1u)));
  }
  return crc;
}

std::uint32_t ReferenceCrc32(const std::uint8_t* p, std::size_t n) {
  std::uint32_t crc = 0xffffffffu;
  for (std::size_t i = 0; i < n; ++i) crc = ReferenceCrc32Step(crc, p[i]);
  return ~crc;
}

std::vector<std::uint8_t> RandomBytes(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint8_t> bytes(n);
  for (std::uint8_t& b : bytes) {
    b = static_cast<std::uint8_t>(rng.UniformInt(256));
  }
  return bytes;
}

TEST(WireHelpersTest, Crc32MatchesBytewiseReferenceOverOffsetsAndLengths) {
  // Every start offset 0-15 (unaligned fold loads) and every length
  // 0-4096: lengths under 64 run slice-by-8 alone, longer ones fold every
  // whole 16-byte block (one to many 64-byte blocks, then single 16-byte
  // folds) and leave a 0-15 byte tail to slice-by-8.
  constexpr std::size_t kMaxLen = 4096;
  const std::vector<std::uint8_t> bytes = RandomBytes(kMaxLen + 16, 5);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    const std::uint8_t* p = bytes.data() + offset;
    std::uint32_t reg = 0xffffffffu;  // reference register over p[0, len)
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      ASSERT_EQ(Crc32({p, len}), ~reg) << "offset " << offset << " len " << len;
      if (len < kMaxLen) reg = ReferenceCrc32Step(reg, p[len]);
    }
  }
}

TEST(WireHelpersTest, Crc32MatchesBytewiseReferenceOnMegabyteBuffers) {
  const std::vector<std::uint8_t> bytes = RandomBytes((1u << 20) + 3, 6);
  for (std::size_t len : {std::size_t{1} << 20, (std::size_t{1} << 20) + 3}) {
    EXPECT_EQ(Crc32({bytes.data(), len}), ReferenceCrc32(bytes.data(), len))
        << "len " << len;
  }
}

TEST(WireHelpersTest, Crc32ContinuesAcrossAnySplit) {
  // Crc32(b, Crc32(a)) == Crc32(a ++ b) wherever the split falls, on either
  // side of the 64-byte fold threshold.
  const std::vector<std::uint8_t> bytes = RandomBytes(300, 7);
  const std::uint32_t whole = Crc32({bytes.data(), bytes.size()});
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    const std::uint32_t head = Crc32({bytes.data(), split});
    EXPECT_EQ(Crc32({bytes.data() + split, bytes.size() - split}, head), whole)
        << "split " << split;
  }
}

TEST(WireCorruptionTest, FlippedBitInAnyFoldBlockOfADispatchFrameIsCaught) {
  // A ~1 MB dispatch frame of the wide-server model's 263,882 floats; the
  // CRC covers every byte before the trailing four. Flip one bit in the
  // first, a middle and the last 16-byte block the fold consumes, and in
  // the slice-by-8 tail after it.
  const ShapeTable shapes = {263882};
  std::vector<float> params(shapes[0]);
  util::Rng rng(8);
  for (float& v : params) v = static_cast<float>(rng.Normal());
  Frame frame;
  EncodeDispatch(params, shapes, frame);
  const std::size_t covered = frame.size() - 4;
  const std::size_t folded = covered & ~std::size_t{15};
  ASSERT_GT(covered, folded) << "the frame should leave a slice-by-8 tail";
  std::vector<float> decoded;
  ASSERT_TRUE(DecodeDispatch(frame, shapes, decoded).ok());
  for (std::size_t byte : {std::size_t{3}, folded / 2 + 5, folded - 7,
                           covered - 1}) {
    for (int bit : {0, 7}) {
      Frame corrupt = frame;
      corrupt[byte] ^= static_cast<std::uint8_t>(1u << bit);
      util::Status status = DecodeDispatch(corrupt, shapes, decoded);
      EXPECT_FALSE(status.ok()) << "byte " << byte << " bit " << bit;
      EXPECT_NE(status.ToString().find("CRC mismatch"), std::string::npos)
          << status.ToString();
    }
  }
}

TEST(WireHelpersTest, TopKCountClampsToValidRange) {
  EXPECT_EQ(TopKCount(0, 0.1), 0u);
  EXPECT_EQ(TopKCount(100, 0.1), 10u);
  EXPECT_EQ(TopKCount(5, 0.1), 1u);     // rounds up from 0.5, floor is 1
  EXPECT_EQ(TopKCount(3, 0.0), 1u);     // never empty
  EXPECT_EQ(TopKCount(10, 1.0), 10u);
  EXPECT_EQ(TopKCount(10, 7.0), 10u);   // never more than n
  // A fraction that is not > 0 keeps one coordinate; the count is clamped
  // before it is converted, so a negative product cannot wrap to n.
  EXPECT_EQ(TopKCount(1000, -0.5), 1u);
  EXPECT_EQ(TopKCount(1000, -1e300), 1u);
  EXPECT_EQ(TopKCount(1000, std::numeric_limits<double>::quiet_NaN()), 1u);
  EXPECT_EQ(TopKCount(1000, 1e300), 1000u);
}

TEST(WireHelpersTest, ValidateCodecOptionsRejectsMeaninglessTopKFractions) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (Scheme scheme : {Scheme::kTopK, Scheme::kInt8TopK}) {
    CodecOptions options;
    options.scheme = scheme;
    for (double fraction : {nan, 0.0, -0.1, 1.5}) {
      options.topk_fraction = fraction;
      EXPECT_FALSE(ValidateCodecOptions(options).ok())
          << SchemeName(scheme) << " " << fraction;
    }
    for (double fraction : {1e-6, 0.1, 1.0}) {
      options.topk_fraction = fraction;
      EXPECT_TRUE(ValidateCodecOptions(options).ok())
          << SchemeName(scheme) << " " << fraction;
    }
  }
  // The other schemes never read the fraction.
  for (Scheme scheme : {Scheme::kIdentity, Scheme::kDelta, Scheme::kInt8}) {
    CodecOptions options;
    options.scheme = scheme;
    options.topk_fraction = -0.1;
    EXPECT_TRUE(ValidateCodecOptions(options).ok()) << SchemeName(scheme);
  }
}

TEST(WireHelpersTest, SchemeNamesRoundTrip) {
  for (Scheme scheme : {Scheme::kIdentity, Scheme::kDelta, Scheme::kInt8,
                        Scheme::kTopK, Scheme::kInt8TopK}) {
    auto parsed = ParseScheme(SchemeName(scheme));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), scheme);
  }
  EXPECT_EQ(ParseScheme("none").value(), Scheme::kIdentity);
  EXPECT_EQ(ParseScheme("int8-topk").value(), Scheme::kInt8TopK);
  EXPECT_FALSE(ParseScheme("gzip").ok());
  EXPECT_FALSE(SchemeIsLossy(Scheme::kIdentity));
  EXPECT_FALSE(SchemeIsLossy(Scheme::kDelta));
  EXPECT_TRUE(SchemeIsLossy(Scheme::kInt8TopK));
}

// --- round-trips over the model zoo ----------------------------------------

TEST(WireRoundTripTest, DispatchIsExactForEveryZooArchitecture) {
  for (const models::ModelFactory& factory : ZooFactories()) {
    nn::Sequential model = factory();
    std::vector<float> flat;
    ShapeTable shapes;
    FlattenModel(model, flat, shapes);
    ASSERT_GT(shapes.size(), 1u);

    Frame frame;
    EncodeDispatch(flat, shapes, frame);
    EXPECT_EQ(frame.size(), DispatchWireBytes(flat.size(), shapes));

    std::vector<float> decoded;
    util::Status status = DecodeDispatch(frame, shapes, decoded);
    ASSERT_TRUE(status.ok()) << status.ToString();
    ExpectBitIdentical(flat, decoded);
  }
}

TEST(WireRoundTripTest, IdentityAndDeltaUploadsAreExactForEveryZooArch) {
  for (const models::ModelFactory& factory : ZooFactories()) {
    nn::Sequential model = factory();
    std::vector<float> reference;
    ShapeTable shapes;
    FlattenModel(model, reference, shapes);
    std::vector<float> trained = Perturbed(reference, 7);

    for (Scheme scheme : {Scheme::kIdentity, Scheme::kDelta}) {
      CodecOptions options;
      options.scheme = scheme;
      std::vector<float> residual;  // must stay untouched: lossless path
      util::Rng rng(3);
      Frame frame;
      EncodeUpload(options, trained, reference, shapes, residual, rng, frame);
      EXPECT_TRUE(residual.empty());

      std::vector<float> decoded;
      util::Status status = DecodeUpload(frame, reference, shapes, decoded);
      ASSERT_TRUE(status.ok()) << status.ToString();
      ExpectBitIdentical(trained, decoded);
    }
  }
}

TEST(WireRoundTripTest, DeltaIsLosslessOnExtremeBitPatterns) {
  ShapeTable shapes = {8};
  std::vector<float> reference = {0.0f, -0.0f, 1.0f, -1.0f, 1e-38f,
                                  std::numeric_limits<float>::max(), 2.5f,
                                  -3.75f};
  std::vector<float> trained = {
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::denorm_min(),
      -0.0f,
      std::numeric_limits<float>::lowest(),
      2.5f,  // zero delta
      std::nextafterf(-3.75f, 0.0f)};

  Frame frame = EncodeSimpleUpload(Scheme::kDelta, trained, reference, shapes);
  std::vector<float> decoded;
  util::Status status = DecodeUpload(frame, reference, shapes, decoded);
  ASSERT_TRUE(status.ok()) << status.ToString();
  // NaN compares unequal to itself, so losslessness means equal *bits*.
  ExpectBitIdentical(trained, decoded);
}

TEST(WireRoundTripTest, DeltaCompressesSmallUpdates) {
  // A realistic update perturbs low-order mantissa bits; the zigzag varint
  // stream must come out smaller than the raw 4-bytes-per-param identity
  // body for payloads whose params are near their dispatched values.
  ShapeTable shapes = {512};
  std::vector<float> reference(512);
  util::Rng rng(11);
  for (float& v : reference) v = static_cast<float>(rng.Normal(0.0, 1.0));
  std::vector<float> trained = reference;
  for (std::size_t i = 0; i < trained.size(); ++i) {
    // Small bit-level drift, the common case after one local epoch.
    trained[i] = std::nextafterf(trained[i], 2.0f * trained[i]);
  }
  Frame delta = EncodeSimpleUpload(Scheme::kDelta, trained, reference, shapes);
  Frame raw =
      EncodeSimpleUpload(Scheme::kIdentity, trained, reference, shapes);
  EXPECT_LT(delta.size(), raw.size() / 2);
}

// --- quantized schemes -----------------------------------------------------

TEST(WireQuantizeTest, Int8ErrorIsBoundedByPerTensorScale) {
  ShapeTable shapes = {64, 256, 32};
  std::size_t n = 64 + 256 + 32;
  std::vector<float> reference(n), trained(n);
  util::Rng rng(21);
  for (std::size_t i = 0; i < n; ++i) {
    reference[i] = static_cast<float>(rng.Normal(0.0, 1.0));
    trained[i] = reference[i] + static_cast<float>(rng.Normal(0.0, 0.05));
  }
  CodecOptions options;
  options.scheme = Scheme::kInt8;
  std::vector<float> residual;
  util::Rng codec_rng(5);
  Frame frame;
  EncodeUpload(options, trained, reference, shapes, residual, codec_rng,
               frame);
  ASSERT_EQ(residual.size(), n);

  std::vector<float> decoded;
  ASSERT_TRUE(DecodeUpload(frame, reference, shapes, decoded).ok());

  std::size_t offset = 0;
  for (std::uint32_t len : shapes) {
    float maxabs = 0.0f;
    for (std::uint32_t i = 0; i < len; ++i) {
      maxabs = std::max(maxabs, std::fabs(trained[offset + i] -
                                          reference[offset + i]));
    }
    // Stochastic rounding moves each coordinate at most one quantization
    // step from its true value.
    float scale = maxabs / 127.0f;
    for (std::uint32_t i = 0; i < len; ++i) {
      float err = std::fabs(decoded[offset + i] - trained[offset + i]);
      EXPECT_LE(err, scale * 1.0001f);
      // The dropped part is exactly what went into the residual.
      EXPECT_NEAR(residual[offset + i],
                  trained[offset + i] - decoded[offset + i], 1e-6f);
    }
    offset += len;
  }
}

TEST(WireQuantizeTest, ErrorFeedbackDrivesCumulativeErrorToZero) {
  // Ship the same true update T times through the quantizer with error
  // feedback. The EF guarantee: the cumulative decoded mass tracks the
  // cumulative true mass to within one quantization step, so the *average*
  // transmitted update converges to the true update as 1/T.
  ShapeTable shapes = {40};
  std::vector<float> reference(40, 0.0f);
  std::vector<float> true_update(40);
  util::Rng rng(31);
  for (float& v : true_update) v = static_cast<float>(rng.Normal(0.0, 0.1));

  for (Scheme scheme : {Scheme::kInt8, Scheme::kTopK, Scheme::kInt8TopK}) {
    CodecOptions options;
    options.scheme = scheme;
    options.topk_fraction = 0.25;
    std::vector<float> residual;
    std::vector<float> cumulative(40, 0.0f);
    const int kRounds = 60;
    for (int t = 0; t < kRounds; ++t) {
      std::vector<float> trained(40);
      for (int i = 0; i < 40; ++i) trained[i] = reference[i] + true_update[i];
      util::Rng codec_rng(1000 + t);
      Frame frame;
      EncodeUpload(options, trained, reference, shapes, residual, codec_rng,
                   frame);
      std::vector<float> decoded;
      ASSERT_TRUE(DecodeUpload(frame, reference, shapes, decoded).ok());
      for (int i = 0; i < 40; ++i) cumulative[i] += decoded[i] - reference[i];
    }
    for (int i = 0; i < 40; ++i) {
      float mean_sent = cumulative[i] / kRounds;
      // Without EF a dropped coordinate would transmit 0 forever; with EF
      // the residual forces it through within a few rounds.
      EXPECT_NEAR(mean_sent, true_update[i], 0.02f)
          << SchemeName(scheme) << " coordinate " << i;
    }
  }
}

TEST(WireQuantizeTest, StochasticRoundingIsSeedDeterministic) {
  ShapeTable shapes = {128};
  std::vector<float> reference(128, 0.5f);
  std::vector<float> trained = Perturbed(reference, 13);
  for (Scheme scheme : {Scheme::kInt8, Scheme::kInt8TopK}) {
    CodecOptions options;
    options.scheme = scheme;
    std::vector<float> residual_a, residual_b;
    util::Rng rng_a(77), rng_b(77);
    Frame frame_a, frame_b;
    EncodeUpload(options, trained, reference, shapes, residual_a, rng_a,
                 frame_a);
    EncodeUpload(options, trained, reference, shapes, residual_b, rng_b,
                 frame_b);
    EXPECT_EQ(frame_a, frame_b);
    EXPECT_EQ(residual_a, residual_b);
  }
}

TEST(WireQuantizeTest, AllZeroUpdateProducesZeroScaleAndExactDecode) {
  ShapeTable shapes = {16};
  std::vector<float> reference(16, 1.25f);
  std::vector<float> trained = reference;  // no training movement
  for (Scheme scheme : {Scheme::kInt8, Scheme::kTopK, Scheme::kInt8TopK}) {
    Frame frame = EncodeSimpleUpload(scheme, trained, reference, shapes);
    std::vector<float> decoded;
    ASSERT_TRUE(DecodeUpload(frame, reference, shapes, decoded).ok());
    ExpectBitIdentical(reference, decoded);
  }
}

// --- top-k selection -------------------------------------------------------

TEST(WireTopKTest, KeepsLargestMagnitudesAndBreaksTiesTowardLowIndex) {
  ShapeTable shapes = {8};
  std::vector<float> reference(8, 0.0f);
  //                            0     1     2    3    4    5    6    7
  std::vector<float> trained = {1.0f, -2.0f, 2.0f, 2.0f, 0.5f, 2.0f, 0.0f,
                                3.0f};
  // k = round(0.375 * 8) = 3: index 7 (|3|) wins outright; the four
  // magnitude-2 entries tie and the two lowest indices (1, 2) survive.
  Frame frame =
      EncodeSimpleUpload(Scheme::kTopK, trained, reference, shapes, 0.375);
  std::vector<float> decoded;
  ASSERT_TRUE(DecodeUpload(frame, reference, shapes, decoded).ok());
  std::vector<float> expected = {0.0f, -2.0f, 2.0f, 0.0f,
                                 0.0f, 0.0f,  0.0f, 3.0f};
  EXPECT_EQ(decoded, expected);
}

TEST(WireTopKTest, ResidualHoldsExactlyTheDroppedCoordinates) {
  ShapeTable shapes = {10};
  std::vector<float> reference(10, 0.0f);
  std::vector<float> trained = {5.0f, 0.1f, 0.2f, 4.0f, 0.3f,
                                0.4f, 3.0f, 0.5f, 0.6f, 0.7f};
  CodecOptions options;
  options.scheme = Scheme::kTopK;
  options.topk_fraction = 0.3;  // k = 3 -> indices 0, 3, 6 survive
  std::vector<float> residual;
  util::Rng rng(1);
  Frame frame;
  EncodeUpload(options, trained, reference, shapes, residual, rng, frame);
  ASSERT_EQ(residual.size(), 10u);
  for (int i : {0, 3, 6}) EXPECT_EQ(residual[i], 0.0f) << i;
  for (int i : {1, 2, 4, 5, 7, 8, 9}) {
    EXPECT_EQ(residual[i], trained[i]) << i;
  }
}

TEST(WireTopKTest, SingleParamModelAlwaysShipsItsOneCoordinate) {
  ShapeTable shapes = {1};
  std::vector<float> reference = {2.0f};
  std::vector<float> trained = {-1.5f};
  Frame frame =
      EncodeSimpleUpload(Scheme::kTopK, trained, reference, shapes, 0.01);
  std::vector<float> decoded;
  ASSERT_TRUE(DecodeUpload(frame, reference, shapes, decoded).ok());
  EXPECT_EQ(decoded[0], -1.5f);
}

// --- radix select vs the nth_element reference ------------------------------

template <typename T>
void AppendBytes(Frame& out, T value) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(&value);
  out.insert(out.end(), bytes, bytes + sizeof(T));
}

// The top-k upload encoder as it stood before the radix select: copy the
// magnitudes and let std::nth_element find the k-th largest. EncodeUpload
// must reproduce its frames and residuals byte for byte.
Frame ReferenceTopKUpload(bool quantize, double fraction,
                          const std::vector<float>& trained,
                          const std::vector<float>& reference,
                          const ShapeTable& shapes,
                          std::vector<float>& residual, util::Rng& rng) {
  const std::size_t n = trained.size();
  if (residual.empty()) residual.assign(n, 0.0f);
  std::vector<float> update(n);
  bool finite = true;
  for (std::size_t i = 0; i < n; ++i) {
    update[i] = trained[i] - reference[i] + residual[i];
    finite &= std::isfinite(update[i]) != 0;
  }
  const std::uint64_t k = TopKCount(n, fraction);
  std::vector<float> mags(n);
  for (std::size_t i = 0; i < n; ++i) {
    float a = std::fabs(update[i]);
    mags[i] = std::isfinite(a) ? a : std::numeric_limits<float>::infinity();
  }
  std::vector<float> order = mags;
  std::nth_element(order.begin(), order.begin() + (k - 1), order.end(),
                   std::greater<float>());
  const float threshold = order[k - 1];
  std::uint64_t above = 0;
  for (float m : mags) above += m > threshold ? 1 : 0;
  std::uint64_t at_threshold = k - above;
  std::vector<std::uint8_t> bitmap((n + 7) / 8, 0);
  std::vector<std::uint32_t> indices;
  for (std::size_t i = 0; i < n; ++i) {
    bool take = mags[i] > threshold;
    if (!take && mags[i] == threshold && at_threshold > 0) {
      take = true;
      --at_threshold;
    }
    if (take) {
      bitmap[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
      indices.push_back(static_cast<std::uint32_t>(i));
    }
  }

  Frame body;
  AppendBytes(body, k);
  body.insert(body.end(), bitmap.begin(), bitmap.end());
  if (finite) residual = update;
  if (!quantize) {
    for (std::uint32_t i : indices) {
      AppendBytes(body, update[i]);
      if (finite) residual[i] = 0.0f;
    }
  } else {
    float maxabs = 0.0f;
    for (std::uint32_t i : indices) {
      float a = std::fabs(update[i]);
      if (std::isfinite(a) && a > maxabs) maxabs = a;
    }
    float scale =
        finite ? maxabs / 127.0f : std::numeric_limits<float>::quiet_NaN();
    AppendBytes(body, scale);
    for (std::uint32_t i : indices) {
      if (!finite || scale == 0.0f) {
        body.push_back(0);
        if (finite) residual[i] = update[i];
        continue;
      }
      float y = std::clamp(update[i] / scale, -127.0f, 127.0f);
      float lo = std::floor(y);
      int q = static_cast<int>(lo) + (rng.Uniform() < y - lo ? 1 : 0);
      auto q8 = static_cast<std::int8_t>(std::clamp(q, -127, 127));
      body.push_back(static_cast<std::uint8_t>(q8));
      residual[i] = update[i] - q8 * scale;
    }
  }

  Frame frame;
  AppendBytes(frame, std::uint32_t{0x50574346});  // "FCWP"
  AppendBytes(frame, std::uint8_t{1});
  AppendBytes(frame, static_cast<std::uint8_t>(quantize ? Scheme::kInt8TopK
                                                        : Scheme::kTopK));
  AppendBytes(frame, std::uint16_t{0});
  AppendBytes(frame, static_cast<std::uint32_t>(shapes.size()));
  for (std::uint32_t len : shapes) AppendBytes(frame, len);
  AppendBytes(frame, static_cast<std::uint64_t>(n));
  AppendBytes(frame, static_cast<std::uint64_t>(body.size()));
  frame.insert(frame.end(), body.begin(), body.end());
  AppendBytes(frame, Crc32({frame.data(), frame.size()}));
  return frame;
}

// The top-k decoder as it stood before the popcount walk: one shift and
// branch per coordinate.
std::vector<float> ReferenceTopKDecode(bool quantized, const Frame& frame,
                                       const std::vector<float>& reference,
                                       const ShapeTable& shapes) {
  const std::size_t n = reference.size();
  std::size_t offset = BodyLenOffset(shapes) + 8 + 8;  // past the u64 k
  const std::uint8_t* bitmap = frame.data() + offset;
  offset += (n + 7) / 8;
  float scale = 0.0f;
  if (quantized) {
    std::memcpy(&scale, frame.data() + offset, sizeof(scale));
    offset += sizeof(scale);
  }
  std::vector<float> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    float delta = 0.0f;
    if ((bitmap[i / 8] >> (i % 8)) & 1u) {
      if (quantized) {
        delta = static_cast<std::int8_t>(frame[offset++]) * scale;
      } else {
        std::memcpy(&delta, frame.data() + offset, sizeof(delta));
        offset += sizeof(delta);
      }
    }
    out[i] = reference[i] + delta;
  }
  return out;
}

// Restores the startup SIMD tier when a test that pins one ends.
struct SimdTierGuard {
  ~SimdTierGuard() { ops::testing::ResetForcedSimdTier(); }
};

float FromBits(std::uint32_t bits) {
  float value = 0.0f;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

TEST(WireTopKTest, RadixSelectMatchesNthElementReference) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  struct Case {
    std::string name;
    std::vector<float> trained;
    std::vector<float> reference;
    std::vector<float> residual;  // EF state going in; empty means zeros
    ShapeTable shapes;            // empty means one tensor of every param
  };
  std::vector<Case> cases;
  auto add = [&](std::string name, std::vector<float> trained,
                 std::vector<float> residual = {}, ShapeTable shapes = {}) {
    std::vector<float> reference(trained.size(), 0.0f);
    // Signed zeros in the reference: unselected coordinates must decode
    // to reference + 0.0f, turning -0.0 into +0.0.
    for (std::size_t i = 0; i < reference.size(); i += 3) reference[i] = -0.0f;
    cases.push_back({std::move(name), std::move(trained), std::move(reference),
                     std::move(residual), std::move(shapes)});
  };
  {
    std::vector<float> v(29);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = i % 2 ? 1.5f : -1.5f;
    add("all-equal magnitudes", v);
  }
  {
    // Three magnitude levels; most thresholds land inside a run of ties.
    util::Rng rng(11);
    std::vector<float> v(203);
    for (float& x : v) {
      x = static_cast<float>(0.25 * (1 + rng.UniformInt(3)));
      if (rng.Uniform() < 0.5) x = -x;
    }
    add("ties straddling the threshold", v);
  }
  {
    // Same high 16 bits, different low bits: the second histogram pass
    // decides every selection.
    util::Rng rng(12);
    std::vector<float> v(77);
    for (float& x : v) {
      auto ulps = static_cast<std::uint32_t>(rng.UniformInt(40));
      x = FromBits(0x3f800000u + ulps);  // 1.0f plus a few ulps
    }
    add("one high bucket", v);
  }
  add("signed zeros", {0.0f, -0.0f, 0.0f, 1.0f, -0.0f, 0.0f, -2.0f, -0.0f,
                       0.0f, 0.0f, -0.0f},
      std::vector<float>(11, -0.0f));
  add("denormals", {FromBits(1), -FromBits(2), FromBits(0x007fffffu), 0.0f,
                    -FromBits(1), FromBits(0x00000100u), 1e-38f, -FromBits(2),
                    FromBits(3), 0.0f, -FromBits(0x007fffffu), FromBits(1),
                    FromBits(0x00800000u)});
  add("infinities", {1.0f, inf, -2.0f, -inf, 0.5f, inf, 3.0f, 0.0f, -inf});
  add("nan", {0.1f, nan, 0.2f, -nan, 0.3f, 0.4f, 0.5f, 0.6f, nan, -0.7f});
  {
    util::Rng rng(13);
    std::vector<float> v(1000);
    for (float& x : v) x = static_cast<float>(rng.Normal(0.0, 0.01));
    std::vector<float> residual(v.size());
    for (float& r : residual) r = static_cast<float>(rng.Normal(0.0, 0.001));
    add("gaussian with residual", v, residual);
  }
  add("single coordinate", {-3.0f});
  {
    // The wide-server MLP: six tensors, 263,882 floats.
    util::Rng rng(14);
    std::vector<float> v(263882);
    for (float& x : v) x = static_cast<float>(rng.Normal(0.0, 0.01));
    std::vector<float> residual(v.size());
    for (float& r : residual) r = static_cast<float>(rng.Normal(0.0, 0.001));
    add("wide-server gaussian with residual", v, residual,
        {196608, 1024, 65536, 64, 640, 10});
  }
  // Lengths around the 16-lane selection steps and the 64-bit bitmap words,
  // on a coarse grid so runs of ties cross both.
  for (std::size_t n : {15, 16, 17, 63, 64, 65, 1023, 1025}) {
    util::Rng rng(15 + n);
    std::vector<float> v(n);
    for (float& x : v) {
      x = 0.25f * std::round(static_cast<float>(rng.Normal(0.0, 2.0)));
    }
    add("length " + std::to_string(n), v);
  }
  {
    // One level-1 bucket (the top 11 bits agree): bits 19..10 decide, then
    // bits 9..0 among equal middle digits.
    util::Rng rng(16);
    std::vector<float> mid(300);
    std::vector<float> low(300);
    for (std::size_t i = 0; i < mid.size(); ++i) {
      const auto sign = rng.Uniform() < 0.5 ? 0x80000000u : 0u;
      mid[i] = FromBits(sign | 0x3f800000u |
                        static_cast<std::uint32_t>(rng.UniformInt(1024)) << 10 |
                        static_cast<std::uint32_t>(rng.UniformInt(1024)));
      low[i] = FromBits(sign | 0x3f800000u | 0x5u << 10 |
                        static_cast<std::uint32_t>(rng.UniformInt(1024)));
    }
    add("keys differing in bits 19..10", mid);
    add("keys differing in bits 9..0", low);
  }
  {
    // A run of threshold ties from one 16-lane step into the next. At
    // fraction 0.37, k = 18 of 48: ten larger keys, then the budget of
    // eight ties runs out at lane 1 of the second step (ties go on to 21).
    std::vector<float> v(48, 0.5f);
    for (std::size_t i = 0; i < 10; ++i) v[i] = -2.0f;
    for (std::size_t i = 10; i < 22; ++i) v[i] = i % 2 ? 1.0f : -1.0f;
    add("tie run across a 16-lane step", v);
    // The same across a 64-bit word: k = 68 of 184, 56 larger keys, ties
    // over 56..79, so the budget runs out at coordinate 67.
    std::vector<float> w(184, 0.5f);
    for (std::size_t i = 0; i < 56; ++i) w[i] = 3.0f;
    for (std::size_t i = 56; i < 80; ++i) w[i] = -1.0f;
    add("tie run across a bitmap word", w);
  }
  {
    // More than k non-finite coordinates: the threshold is +inf's bucket.
    util::Rng rng(17);
    std::vector<float> v(100);
    for (float& x : v) x = static_cast<float>(rng.Normal(0.0, 1.0));
    for (std::size_t i = 0; i < v.size(); i += 5) {
      v[i] = i % 3 == 0 ? nan : (i % 3 == 1 ? inf : -inf);
    }
    for (std::size_t i = 2; i < v.size(); i += 5) v[i] = -inf;
    add("more non-finite coordinates than k", v);
  }

  // Every case on the generic tier's scalar loops and on the widest tier
  // this CPU runs (the AVX-512 kernels where available).
  SimdTierGuard guard;
  std::vector<ops::SimdTier> tiers = {ops::SimdTier::kGeneric};
  for (ops::SimdTier tier : {ops::SimdTier::kAvx512, ops::SimdTier::kAvx2}) {
    if (ops::testing::ForceSimdTier(tier)) {
      tiers.push_back(tier);
      break;
    }
  }
  for (ops::SimdTier tier : tiers) {
    ASSERT_TRUE(ops::testing::ForceSimdTier(tier));
    for (const Case& c : cases) {
      const ShapeTable shapes =
          c.shapes.empty()
              ? ShapeTable{static_cast<std::uint32_t>(c.trained.size())}
              : c.shapes;
      // k = 1, a few interior k, and k = n.
      for (double fraction : {0.0, 0.1, 0.37, 0.5, 0.9, 1.0}) {
        for (Scheme scheme : {Scheme::kTopK, Scheme::kInt8TopK}) {
          SCOPED_TRACE(c.name + " " + SchemeName(scheme) + " fraction " +
                       std::to_string(fraction) + " tier " +
                       ops::SimdTierName(tier));
          const bool quantize = scheme == Scheme::kInt8TopK;
          CodecOptions options;
          options.scheme = scheme;
          options.topk_fraction = fraction;
          std::vector<float> residual = c.residual;
          util::Rng rng(7);
          Frame frame;
          EncodeUpload(options, c.trained, c.reference, shapes, residual, rng,
                       frame);
          std::vector<float> expected_residual = c.residual;
          util::Rng expected_rng(7);
          Frame expected = ReferenceTopKUpload(
              quantize, fraction, c.trained, c.reference, shapes,
              expected_residual, expected_rng);
          ASSERT_EQ(frame.size(), expected.size());
          EXPECT_EQ(std::memcmp(frame.data(), expected.data(), frame.size()),
                    0);
          ExpectBitIdentical(residual, expected_residual);
          EXPECT_EQ(rng.NextUint64(), expected_rng.NextUint64());

          std::vector<float> decoded;
          ASSERT_TRUE(DecodeUpload(frame, c.reference, shapes, decoded).ok());
          ExpectBitIdentical(decoded, ReferenceTopKDecode(quantize, expected,
                                                          c.reference, shapes));
        }
      }
    }
  }
}

// --- corrupted uploads stay screenable -------------------------------------

TEST(WireCorruptionTest, NonFiniteUploadDecodesNonFiniteAndSparesResidual) {
  ShapeTable shapes = {6};
  std::vector<float> reference(6, 0.0f);
  std::vector<float> trained = {0.1f,
                                std::numeric_limits<float>::quiet_NaN(),
                                0.2f,
                                0.3f,
                                0.4f,
                                0.5f};
  for (Scheme scheme : {Scheme::kInt8, Scheme::kTopK, Scheme::kInt8TopK}) {
    CodecOptions options;
    options.scheme = scheme;
    options.topk_fraction = 0.5;
    std::vector<float> residual(6, 0.25f);  // pre-existing EF state
    util::Rng rng(4);
    Frame frame;
    EncodeUpload(options, trained, reference, shapes, residual, rng, frame);
    // One corrupted round must not poison the accumulated residual.
    EXPECT_EQ(residual, std::vector<float>(6, 0.25f)) << SchemeName(scheme);

    std::vector<float> decoded;
    ASSERT_TRUE(DecodeUpload(frame, reference, shapes, decoded).ok());
    bool any_nonfinite = false;
    for (float v : decoded) any_nonfinite |= !std::isfinite(v);
    EXPECT_TRUE(any_nonfinite) << SchemeName(scheme);
  }
}

// --- malformed frames ------------------------------------------------------

class WireRejectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reference_.assign(20, 0.5f);
    trained_ = Perturbed(reference_, 5);
    shapes_ = {12, 8};
  }

  util::Status Decode(const Frame& frame, std::vector<float>& out) {
    return DecodeUpload(frame, reference_, shapes_, out);
  }

  ShapeTable shapes_;
  std::vector<float> reference_;
  std::vector<float> trained_;
};

TEST_F(WireRejectTest, TruncationAtEveryBoundaryIsRejected) {
  Frame frame =
      EncodeSimpleUpload(Scheme::kIdentity, trained_, reference_, shapes_);
  std::vector<float> out;
  for (std::size_t keep : {0ul, 3ul, 11ul, frame.size() - 5, frame.size() - 1}) {
    Frame cut(frame.begin(), frame.begin() + keep);
    util::Status status = Decode(cut, out);
    EXPECT_FALSE(status.ok()) << "kept " << keep << " bytes";
    EXPECT_NE(status.ToString().find("malformed"), std::string::npos);
  }
}

TEST_F(WireRejectTest, EverySingleByteFlipTripsTheCrc) {
  Frame frame =
      EncodeSimpleUpload(Scheme::kDelta, trained_, reference_, shapes_);
  std::vector<float> out;
  // Flip a byte in the header, the body, and the CRC itself.
  for (std::size_t at : {0ul, 5ul, frame.size() / 2, frame.size() - 2}) {
    Frame bad = frame;
    bad[at] ^= 0x40;
    EXPECT_FALSE(Decode(bad, out).ok()) << "flipped byte " << at;
  }
}

TEST_F(WireRejectTest, DispatchDecoderRejectsCodedSchemes) {
  Frame frame =
      EncodeSimpleUpload(Scheme::kDelta, trained_, reference_, shapes_);
  std::vector<float> out;
  util::Status status = DecodeDispatch(frame, shapes_, out);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("identity"), std::string::npos);
}

TEST_F(WireRejectTest, ShapeTableMismatchIsRejected) {
  Frame frame =
      EncodeSimpleUpload(Scheme::kIdentity, trained_, reference_, shapes_);
  std::vector<float> out;
  // Same total params, different split: the frame must not decode into a
  // model with a different tensor layout.
  ShapeTable other = {8, 12};
  EXPECT_FALSE(DecodeUpload(frame, reference_, other, out).ok());
  ShapeTable fewer = {12};
  EXPECT_FALSE(DecodeUpload(frame, reference_, fewer, out).ok());
}

TEST_F(WireRejectTest, ReferenceSizeMismatchIsRejected) {
  Frame frame =
      EncodeSimpleUpload(Scheme::kDelta, trained_, reference_, shapes_);
  std::vector<float> out;
  std::vector<float> short_reference(reference_.begin(),
                                     reference_.end() - 1);
  EXPECT_FALSE(
      DecodeUpload(frame, short_reference, shapes_, out).ok());
}

TEST_F(WireRejectTest, UnknownSchemeByteIsRejected) {
  Frame frame =
      EncodeSimpleUpload(Scheme::kIdentity, trained_, reference_, shapes_);
  frame[5] = 200;  // scheme byte past the last known scheme
  FixCrc(frame);
  std::vector<float> out;
  util::Status status = Decode(frame, out);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("unknown scheme"), std::string::npos);
}

TEST_F(WireRejectTest, TrailingDeltaBytesAreRejected) {
  Frame frame =
      EncodeSimpleUpload(Scheme::kDelta, trained_, reference_, shapes_);
  // Splice one extra zero-delta varint byte into the body, keep the header
  // honest about it, and re-sign the frame: the decoder must notice the
  // stream decodes all params before the body ends.
  std::uint64_t body_len = 0;
  std::size_t len_at = BodyLenOffset(shapes_);
  std::memcpy(&body_len, frame.data() + len_at, 8);
  body_len += 1;
  std::memcpy(frame.data() + len_at, &body_len, 8);
  frame.insert(frame.end() - 4, std::uint8_t{0});
  FixCrc(frame);
  std::vector<float> out;
  util::Status status = Decode(frame, out);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("trailing delta"), std::string::npos);
}

TEST_F(WireRejectTest, TopKBitmapPopulationMismatchIsRejected) {
  Frame frame =
      EncodeSimpleUpload(Scheme::kTopK, trained_, reference_, shapes_, 0.25);
  // The bitmap starts right after the u64 k at the head of the body. Set an
  // extra bit: popcount 6 != k 5 must be caught even though the CRC is
  // re-signed (a buggy encoder, not line noise).
  std::size_t body_at = BodyLenOffset(shapes_) + 8;
  std::size_t bitmap_at = body_at + 8;
  for (std::size_t i = 0; i < 20; ++i) {
    std::uint8_t& byte = frame[bitmap_at + i / 8];
    if (((byte >> (i % 8)) & 1u) == 0) {
      byte |= static_cast<std::uint8_t>(1u << (i % 8));
      break;
    }
  }
  FixCrc(frame);
  std::vector<float> out;
  util::Status status = Decode(frame, out);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("population"), std::string::npos);
}

TEST_F(WireRejectTest, TopKCountOutOfRangeIsRejected) {
  Frame frame =
      EncodeSimpleUpload(Scheme::kTopK, trained_, reference_, shapes_, 0.25);
  std::size_t body_at = BodyLenOffset(shapes_) + 8;
  std::uint64_t huge = 1000;  // > param count
  std::memcpy(frame.data() + body_at, &huge, 8);
  FixCrc(frame);
  std::vector<float> out;
  util::Status status = Decode(frame, out);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("out of range"), std::string::npos);
}

TEST_F(WireRejectTest, TopKBitsPastTheLastParamAreIgnored) {
  // n = 20 leaves 4 unused bits in the bitmap's last byte; they select
  // nothing, count toward nothing, and decode exactly as before.
  Frame frame =
      EncodeSimpleUpload(Scheme::kTopK, trained_, reference_, shapes_, 0.25);
  std::vector<float> clean;
  ASSERT_TRUE(Decode(frame, clean).ok());
  std::size_t bitmap_at = BodyLenOffset(shapes_) + 8 + 8;
  frame[bitmap_at + 2] |= 0xf0;
  FixCrc(frame);
  std::vector<float> out;
  ASSERT_TRUE(Decode(frame, out).ok());
  ExpectBitIdentical(out, clean);
}

TEST_F(WireRejectTest, EmptyAndForeignBuffersAreRejected) {
  std::vector<float> out;
  EXPECT_FALSE(Decode({}, out).ok());
  Frame garbage(100, 0xAB);
  EXPECT_FALSE(Decode(garbage, out).ok());
}

// --- mutation fuzz ---------------------------------------------------------

// One random mutation of a frame stripped of its CRC: a bit flip, a byte
// overwrite, a retagged scheme byte, an inflated length field (tensor
// count, param count, body length, or the u64 that heads a top-k body), or
// a truncated or extended body whose header length is kept honest, so the
// scheme decoder itself must catch it.
void MutateFrame(Frame& frame, const ShapeTable& shapes, util::Rng& rng) {
  const std::size_t len_at = BodyLenOffset(shapes);
  const std::size_t body_at = len_at + 8;
  auto honest_length = [&] {
    std::uint64_t body = frame.size() - body_at;
    std::memcpy(frame.data() + len_at, &body, 8);
  };
  switch (rng.UniformInt(6)) {
    case 0:
      frame[rng.UniformInt(frame.size())] ^=
          static_cast<std::uint8_t>(1u << rng.UniformInt(8));
      break;
    case 1:
      frame[rng.UniformInt(frame.size())] ^=
          static_cast<std::uint8_t>(1 + rng.UniformInt(255));
      break;
    case 2:
      frame[5] = static_cast<std::uint8_t>(rng.UniformInt(5));
      break;
    case 3: {
      const std::uint64_t inflated[] = {std::uint64_t{1} << 32,
                                        std::uint64_t{1} << 62, ~0ULL};
      const std::uint64_t value = inflated[rng.UniformInt(3)];
      switch (rng.UniformInt(4)) {
        case 0: {
          const auto tensors = static_cast<std::uint32_t>(value - 1);
          std::memcpy(frame.data() + 8, &tensors, 4);
          break;
        }
        case 1:
          std::memcpy(frame.data() + len_at - 8, &value, 8);
          break;
        case 2:
          std::memcpy(frame.data() + len_at, &value, 8);
          break;
        default:
          if (frame.size() >= body_at + 8) {
            std::memcpy(frame.data() + body_at, &value, 8);
          }
          break;
      }
      break;
    }
    case 4:
      frame.resize(body_at + rng.UniformInt(frame.size() - body_at));
      honest_length();
      break;
    default:
      for (std::uint64_t n = 1 + rng.UniformInt(64); n > 0; --n) {
        frame.push_back(static_cast<std::uint8_t>(rng.UniformInt(256)));
      }
      honest_length();
      break;
  }
}

TEST(WireFuzzTest, ResealedMutationsDecodeToStatusOrAModelSizedOutput) {
  // 300 params over two tensors: the top-k bitmap spans five 64-bit words
  // and ends mid-byte.
  const ShapeTable shapes = {200, 100};
  std::vector<float> reference(300);
  util::Rng init(3);
  for (float& v : reference) v = static_cast<float>(init.Normal(0.0, 1.0));
  const std::vector<float> trained = Perturbed(reference, 4);
  std::vector<Frame> frames;
  for (Scheme scheme : {Scheme::kIdentity, Scheme::kDelta, Scheme::kInt8,
                        Scheme::kTopK, Scheme::kInt8TopK}) {
    frames.push_back(
        EncodeSimpleUpload(scheme, trained, reference, shapes, 0.33));
  }

  util::Rng rng(0xc0de);
  std::vector<float> out;
  int decoded = 0;
  int rejected = 0;
  for (int i = 0; i < 100000; ++i) {
    const Frame& clean = frames[static_cast<std::size_t>(i) % frames.size()];
    Frame frame(clean.begin(), clean.end() - 4);
    MutateFrame(frame, shapes, rng);
    frame.resize(frame.size() + 4);
    FixCrc(frame);
    util::Status upload = DecodeUpload(frame, reference, shapes, out);
    if (upload.ok()) {
      ASSERT_EQ(out.size(), reference.size()) << "mutation " << i;
      ++decoded;
    } else {
      ASSERT_EQ(upload.code(), util::StatusCode::kInvalidArgument)
          << "mutation " << i;
      ++rejected;
    }
    util::Status dispatch = DecodeDispatch(frame, shapes, out);
    if (dispatch.ok()) {
      ASSERT_EQ(out.size(), reference.size()) << "mutation " << i;
    } else {
      ASSERT_EQ(dispatch.code(), util::StatusCode::kInvalidArgument)
          << "mutation " << i;
    }
  }
  // Both outcomes occur: mutations reach every decoder's own checks.
  EXPECT_GT(decoded, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace fedcross::comm
