#include "comm/wire.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "tensor/tensor_ops.h"
#include "util/check.h"

// The carry-less-multiply CRC fold and the AVX-512 top-k kernels: x86 only,
// compiled under function target attributes and picked at run time, so
// portable builds carry them too.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define FEDCROSS_WIRE_X86 1
#else
#define FEDCROSS_WIRE_X86 0
#endif

namespace fedcross::comm {
namespace {

constexpr std::uint32_t kMagic = 0x50574346;  // "FCWP"
constexpr std::uint8_t kFormatVersion = 1;
constexpr std::uint32_t kMaxTensors = 1u << 20;

// Top-k ranking keys and their radix digits. A key is a magnitude's bit
// pattern with every non-finite value mapped to +inf's, so keys are
// non-negative, never NaN, and order exactly like the floats they encode.
// Bit 31 is always clear, so the three digits are bits 30..20 (the level-1
// bucket), 19..10 and 9..0.
constexpr std::uint32_t kAbsMask = 0x7fffffffu;
constexpr std::uint32_t kInfBits = 0x7f800000u;
constexpr int kLevel1Shift = 20;
constexpr std::size_t kLevel1Buckets = std::size_t{1} << 11;
// The level-1 histogram is counted into four interleaved copies, so runs of
// equal buckets do not serialise on one counter.
constexpr std::size_t kLevel1Copies = 4;
constexpr int kDigitBits = 10;
constexpr std::uint32_t kDigitMask = (1u << kDigitBits) - 1;
// Slack past the last element of the compaction outputs: the AVX-512
// kernels store whole 16-lane vectors.
constexpr std::size_t kLanes = 16;
// Coordinates per bitmap word (the scalar selection pass and the decoder).
constexpr std::size_t kWordBits = 64;

// Thread-local scratch for the variable-size intermediates. Pool workers are
// long-lived, so the capacity is reused across rounds and the steady-state
// encode path allocates nothing. Scheme bodies are written straight into the
// caller's frame.
struct EncodeScratch {
  std::vector<float> update;
  std::vector<std::uint32_t> histogram;   // level-1 buckets, 32 KB
  std::vector<std::uint32_t> candidates;  // keys in the threshold's bucket
  std::vector<std::uint32_t> indices;     // top-k survivors, ascending
  std::vector<float> values;              // their updates, same order
};

EncodeScratch& Scratch() {
  thread_local EncodeScratch scratch;
  return scratch;
}

void AppendRaw(std::vector<std::uint8_t>& out, const void* src,
               std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(src);
  out.insert(out.end(), bytes, bytes + size);
}

template <typename T>
void AppendPod(std::vector<std::uint8_t>& out, T value) {
  AppendRaw(out, &value, sizeof(value));
}

template <typename T>
bool ReadPod(std::span<const std::uint8_t> in, std::size_t& offset, T& value) {
  if (offset + sizeof(T) > in.size()) return false;
  std::memcpy(&value, in.data() + offset, sizeof(T));
  offset += sizeof(T);
  return true;
}

util::Status Malformed(const std::string& what) {
  return util::Status::InvalidArgument("malformed wire frame: " + what);
}

std::uint64_t ShapeSum(const ShapeTable& shapes) {
  std::uint64_t sum = 0;
  for (std::uint32_t len : shapes) sum += len;
  return sum;
}

// Header bytes for a table of T tensors: fixed fields + the length list.
std::size_t HeaderBytes(std::size_t tensors) {
  return 8 + 4 + 4 * tensors + 8 + 8;
}

// Clears `frame` and writes its header with a zero body length; the scheme
// body is then appended in place and SealFrame finishes the frame. Returns
// the body's offset.
std::size_t BeginFrame(Scheme scheme, const ShapeTable& shapes,
                       std::uint64_t param_count,
                       std::vector<std::uint8_t>& frame) {
  frame.clear();
  frame.reserve(HeaderBytes(shapes.size()));
  AppendPod(frame, kMagic);
  AppendPod(frame, kFormatVersion);
  AppendPod(frame, static_cast<std::uint8_t>(scheme));
  AppendPod(frame, static_cast<std::uint16_t>(0));  // reserved
  AppendPod(frame, static_cast<std::uint32_t>(shapes.size()));
  for (std::uint32_t len : shapes) AppendPod(frame, len);
  AppendPod(frame, param_count);
  AppendPod(frame, std::uint64_t{0});  // body length, patched by SealFrame
  return frame.size();
}

// Patches the body length (everything appended since BeginFrame) and
// appends the CRC of every preceding byte.
void SealFrame(std::size_t body_offset, std::vector<std::uint8_t>& frame) {
  const std::uint64_t body_bytes = frame.size() - body_offset;
  std::memcpy(frame.data() + body_offset - sizeof(body_bytes), &body_bytes,
              sizeof(body_bytes));
  AppendPod(frame, Crc32({frame.data(), frame.size()}));
}

struct ParsedFrame {
  Scheme scheme = Scheme::kIdentity;
  std::uint64_t params = 0;
  std::span<const std::uint8_t> body;
};

// Validates CRC, magic/version, and the shape table against the decoder's
// expectation, and exposes the scheme body.
util::Status ParseFrame(std::span<const std::uint8_t> frame,
                        const ShapeTable& shapes, ParsedFrame& out) {
  if (frame.size() < HeaderBytes(0) + 4) return Malformed("truncated header");
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, frame.data() + frame.size() - 4, 4);
  if (Crc32(frame.subspan(0, frame.size() - 4)) != stored_crc) {
    return Malformed("CRC mismatch");
  }

  std::size_t offset = 0;
  std::uint32_t magic = 0;
  std::uint8_t version = 0;
  std::uint8_t scheme_byte = 0;
  std::uint16_t reserved = 0;
  std::uint32_t tensors = 0;
  ReadPod(frame, offset, magic);
  ReadPod(frame, offset, version);
  ReadPod(frame, offset, scheme_byte);
  ReadPod(frame, offset, reserved);
  ReadPod(frame, offset, tensors);
  if (magic != kMagic) return Malformed("bad magic");
  if (version != kFormatVersion) {
    return Malformed("unsupported format version " + std::to_string(version));
  }
  if (scheme_byte > static_cast<std::uint8_t>(Scheme::kInt8TopK)) {
    return Malformed("unknown scheme " + std::to_string(scheme_byte));
  }
  if (tensors > kMaxTensors || tensors != shapes.size()) {
    return Malformed("shape table has " + std::to_string(tensors) +
                     " tensors, expected " + std::to_string(shapes.size()));
  }
  for (std::uint32_t t = 0; t < tensors; ++t) {
    std::uint32_t len = 0;
    if (!ReadPod(frame, offset, len)) return Malformed("truncated shape table");
    if (len != shapes[t]) {
      return Malformed("tensor " + std::to_string(t) + " has " +
                       std::to_string(len) + " params, expected " +
                       std::to_string(shapes[t]));
    }
  }
  std::uint64_t params = 0;
  std::uint64_t body_bytes = 0;
  if (!ReadPod(frame, offset, params) || !ReadPod(frame, offset, body_bytes)) {
    return Malformed("truncated header");
  }
  if (params != ShapeSum(shapes)) {
    return Malformed("param count disagrees with shape table");
  }
  if (body_bytes != frame.size() - offset - 4) {
    return Malformed("body length disagrees with frame size");
  }
  out.scheme = static_cast<Scheme>(scheme_byte);
  out.params = params;
  out.body = frame.subspan(offset, static_cast<std::size_t>(body_bytes));
  return util::Status::Ok();
}

// --- varint + zigzag (kDelta) ----------------------------------------------

void AppendVarint(std::vector<std::uint8_t>& out, std::uint32_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

bool ReadVarint(std::span<const std::uint8_t> in, std::size_t& offset,
                std::uint32_t& value) {
  value = 0;
  for (int shift = 0; shift < 35; shift += 7) {
    if (offset >= in.size()) return false;
    std::uint8_t byte = in[offset++];
    value |= static_cast<std::uint32_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return true;
  }
  return false;  // over-long varint
}

std::uint32_t ZigZag(std::uint32_t delta) {
  return (delta << 1) ^
         static_cast<std::uint32_t>(static_cast<std::int32_t>(delta) >> 31);
}

std::uint32_t UnZigZag(std::uint32_t z) { return (z >> 1) ^ (0u - (z & 1u)); }

std::uint32_t FloatBits(float value) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

float BitsFloat(std::uint32_t bits) {
  float value = 0.0f;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

// --- int8 stochastic rounding ----------------------------------------------

std::int8_t QuantizeStochastic(float value, float scale, util::Rng& rng) {
  float y = std::clamp(value / scale, -127.0f, 127.0f);
  float lo = std::floor(y);
  // One uniform draw per coordinate regardless of value keeps the draw
  // sequence aligned across clients with different payloads.
  int q = static_cast<int>(lo) + (rng.Uniform() < y - lo ? 1 : 0);
  return static_cast<std::int8_t>(std::clamp(q, -127, 127));
}

// The top-k ranking key of one update coordinate: its magnitude's bit
// pattern (sign bit cleared), capped at +inf's so every NaN ranks as +inf.
inline std::uint32_t MagnitudeKey(float value) {
  return std::min(std::bit_cast<std::uint32_t>(value) & kAbsMask, kInfBits);
}

// The error-feedback input: update = (trained - reference) + residual, in
// one vectorizing pass. Returns the largest magnitude bit pattern
// (bits & 0x7fffffff); the update is finite iff it lies below +inf's. A
// corrupted (NaN/Inf) upload is still framed -- it must reach the
// server-side screen -- but the caller then skips the residual update.
//
// With a `histogram` (the top-k schemes) the same pass also counts every
// coordinate's level-1 bucket, MagnitudeKey >> 20, into kLevel1Copies
// interleaved copies: each block's buckets are computed vectorized, then
// counted from L1.
std::uint32_t BuildUpdate(std::span<const float> trained,
                          std::span<const float> ref,
                          std::span<const float> residual,
                          std::vector<float>& update,
                          std::uint32_t* histogram) {
  const std::size_t n = trained.size();
  update.resize(n);
  float* out = update.data();
  std::uint32_t max_bits = 0;
  constexpr std::size_t kBlock = 256;
  std::uint32_t buckets[kBlock] = {};
  for (std::size_t base = 0; base < n; base += kBlock) {
    const std::size_t len = std::min(kBlock, n - base);
    for (std::size_t j = 0; j < len; ++j) {
      const float e = trained[base + j] - ref[base + j] + residual[base + j];
      out[base + j] = e;
      const std::uint32_t bits = std::bit_cast<std::uint32_t>(e) & kAbsMask;
      max_bits = std::max(max_bits, bits);
      buckets[j] = std::min(bits, kInfBits) >> kLevel1Shift;
    }
    if (histogram == nullptr) continue;
    std::size_t j = 0;
    for (; j + kLevel1Copies <= len; j += kLevel1Copies) {
      ++histogram[buckets[j]];
      ++histogram[kLevel1Buckets + buckets[j + 1]];
      ++histogram[2 * kLevel1Buckets + buckets[j + 2]];
      ++histogram[3 * kLevel1Buckets + buckets[j + 3]];
    }
    for (; j < len; ++j) ++histogram[buckets[j]];
  }
  return max_bits;
}

void EncodeInt8Body(const ShapeTable& shapes, const std::vector<float>& update,
                    bool finite, util::Rng& rng, std::vector<float>& residual,
                    std::vector<std::uint8_t>& body) {
  std::size_t offset = 0;
  for (std::uint32_t len : shapes) {
    float maxabs = 0.0f;
    for (std::uint32_t i = 0; i < len; ++i) {
      float a = std::fabs(update[offset + i]);
      if (std::isfinite(a) && a > maxabs) maxabs = a;
    }
    // A non-finite chunk ships a NaN scale: the whole chunk decodes
    // non-finite and the screening gate rejects the upload.
    float scale = finite ? maxabs / 127.0f
                         : std::numeric_limits<float>::quiet_NaN();
    AppendPod(body, scale);
    if (!finite || scale == 0.0f) {
      body.insert(body.end(), len, 0);
      if (finite) {
        for (std::uint32_t i = 0; i < len; ++i) residual[offset + i] = 0.0f;
      }
    } else {
      for (std::uint32_t i = 0; i < len; ++i) {
        std::int8_t q = QuantizeStochastic(update[offset + i], scale, rng);
        body.push_back(static_cast<std::uint8_t>(q));
        residual[offset + i] = update[offset + i] - q * scale;
      }
    }
    offset += len;
  }
}

// --- top-k selection -------------------------------------------------------
//
// Deterministic top-k over magnitude keys: strictly larger keys first, then
// the lowest-index coordinates equal to the k-th largest key until k are
// taken. Non-finite coordinates rank as +inf, so corrupted values always
// survive into the frame (and get screened server-side). Three streaming
// passes over the update find and take the survivors:
//   1. BuildUpdate counts the level-1 histogram (key bits 30..20);
//   2. the keys in the threshold's level-1 bucket are compacted, and two
//      1024-bucket histograms over them alone fix bits 19..10 and 9..0:
//      the exact k-th largest key and the count strictly above it;
//   3. one selection pass writes the bitmap, copies a finite update into
//      the residual and compacts the survivors' indices and values.
// On the AVX-512 tier passes 2 and 3 run as mask-and-compress kernels;
// every other tier runs the scalar loops. Both write the same bytes.

// The k-th largest key and how many keys lie strictly above it.
struct TopKThreshold {
  std::uint32_t key = 0;
  std::uint64_t above = 0;
};

// Walks `histogram` down from bucket `top` until it covers k keys together
// with the `above` already counted (which it advances); returns the bucket
// that holds the k-th largest key.
std::uint32_t WalkDown(const std::uint32_t* histogram, std::uint32_t top,
                       std::uint64_t k, std::uint64_t& above) {
  std::uint32_t bucket = top;
  while (above + histogram[bucket] < k) above += histogram[bucket--];
  return bucket;
}

// Writes the keys whose level-1 bucket is `bucket`, in index order, to `out`
// (room for their count + 1); returns how many. Each key is stored
// unconditionally and kept only when it matches.
std::size_t CompactBucket(const float* update, std::size_t n,
                          std::uint32_t bucket, std::uint32_t* out) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t key = MagnitudeKey(update[i]);
    out[count] = key;
    count += (key >> kLevel1Shift) == bucket ? 1 : 0;
  }
  return count;
}

// The lowest set bits of `tied`, at most `budget` of them; spends the budget.
std::uint64_t TakeLowestTies(std::uint64_t tied, std::uint64_t& budget) {
  std::uint64_t taken = 0;
  for (; tied != 0 && budget > 0; --budget) {
    const std::uint64_t lowest = tied & (~tied + 1);
    taken |= lowest;
    tied ^= lowest;
  }
  return taken;
}

// A bitmap word: the LSB-first bits of up to 64 coordinates held in `bytes`
// bytes of the frame's bitmap (bit i of byte b is coordinate 8b + i).
std::uint64_t LoadBitmapWord(const std::uint8_t* in, std::size_t bytes) {
  std::uint64_t word = 0;
  if (std::endian::native == std::endian::little && bytes == sizeof(word)) {
    std::memcpy(&word, in, sizeof(word));
    return word;
  }
  for (std::size_t b = 0; b < bytes; ++b) {
    word |= static_cast<std::uint64_t>(in[b]) << (8 * b);
  }
  return word;
}

void StoreBitmapWord(std::uint64_t word, std::size_t bytes,
                     std::uint8_t* out) {
  if (std::endian::native == std::endian::little && bytes == sizeof(word)) {
    std::memcpy(out, &word, sizeof(word));
    return;
  }
  for (std::size_t b = 0; b < bytes; ++b) {
    out[b] = static_cast<std::uint8_t>(word >> (8 * b));
  }
}

// Where the selection pass writes: the frame's n-bit bitmap, the survivors'
// indices and values (room for k + kLanes each), and -- only for a finite
// update -- the residual, which receives a copy of the whole update.
struct SelectionOut {
  std::uint8_t* bitmap = nullptr;
  std::uint32_t* indices = nullptr;
  float* values = nullptr;
  float* residual = nullptr;
};

// Pass 3, one 64-coordinate bitmap word at a time; returns the survivors.
std::size_t SelectSurvivors(const float* update, std::size_t n,
                            TopKThreshold threshold, std::uint64_t k,
                            const SelectionOut& out) {
  std::uint64_t ties = k - threshold.above;
  std::size_t count = 0;
  for (std::size_t base = 0; base < n; base += kWordBits) {
    const std::size_t len = std::min(kWordBits, n - base);
    std::uint64_t take = 0;
    std::uint64_t tied = 0;
    for (std::size_t j = 0; j < len; ++j) {
      const std::uint32_t key = MagnitudeKey(update[base + j]);
      take |= static_cast<std::uint64_t>(key > threshold.key) << j;
      tied |= static_cast<std::uint64_t>(key == threshold.key) << j;
    }
    if (tied != 0 && ties > 0) take |= TakeLowestTies(tied, ties);
    StoreBitmapWord(take, (len + 7) / 8, out.bitmap + base / 8);
    if (out.residual != nullptr) {
      std::memcpy(out.residual + base, update + base, len * sizeof(float));
    }
    for (; take != 0; take &= take - 1) {
      const std::size_t i = base + std::countr_zero(take);
      out.indices[count] = static_cast<std::uint32_t>(i);
      out.values[count] = update[i];
      ++count;
    }
  }
  return count;
}

#if FEDCROSS_WIRE_X86

// GCC 12 reports the intrinsics' deliberately undefined pass-through
// operand (_mm512_undefined_epi32) as maybe-uninitialized (GCC bug 105593).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

// The lanes of a 16-lane step that lie below n, given `left` = n - i.
inline __mmask16 LiveLanes(std::size_t left) {
  return left >= kLanes ? static_cast<__mmask16>(0xffff)
                        : static_cast<__mmask16>((1u << left) - 1u);
}

// CompactBucket, 16 keys per step: vpcompressd packs the matching keys and
// the whole vector is stored (hence the kLanes slack).
__attribute__((target("avx512f,avx512bw,avx512vl,popcnt"))) std::size_t
CompactBucketAvx512(const float* update, std::size_t n, std::uint32_t bucket,
                    std::uint32_t* out) {
  const __m512i abs_mask = _mm512_set1_epi32(static_cast<int>(kAbsMask));
  const __m512i inf = _mm512_set1_epi32(static_cast<int>(kInfBits));
  const __m512i want = _mm512_set1_epi32(static_cast<int>(bucket));
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; i += kLanes) {
    const __mmask16 live = LiveLanes(n - i);
    const __m512i key = _mm512_min_epu32(
        _mm512_and_si512(_mm512_maskz_loadu_epi32(live, update + i), abs_mask),
        inf);
    const __mmask16 hit = _mm512_mask_cmpeq_epi32_mask(
        live, _mm512_srli_epi32(key, kLevel1Shift), want);
    _mm512_storeu_si512(out + count, _mm512_maskz_compress_epi32(hit, key));
    count += std::popcount(static_cast<unsigned>(hit));
  }
  return count;
}

// SelectSurvivors, 16 coordinates per step: the compare masks are the
// bitmap's bits, and vpcompressd packs the survivors' indices and values.
__attribute__((target("avx512f,avx512bw,avx512vl,popcnt"))) std::size_t
SelectSurvivorsAvx512(const float* update, std::size_t n,
                      TopKThreshold threshold, std::uint64_t k,
                      const SelectionOut& out) {
  const __m512i abs_mask = _mm512_set1_epi32(static_cast<int>(kAbsMask));
  const __m512i inf = _mm512_set1_epi32(static_cast<int>(kInfBits));
  const __m512i cut = _mm512_set1_epi32(static_cast<int>(threshold.key));
  const __m512i step = _mm512_set1_epi32(static_cast<int>(kLanes));
  __m512i index =
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  std::uint64_t ties = k - threshold.above;
  std::size_t count = 0;
  for (std::size_t i = 0; i < n;
       i += kLanes, index = _mm512_add_epi32(index, step)) {
    const std::size_t left = n - i;
    const __mmask16 live = LiveLanes(left);
    const __m512 value = _mm512_maskz_loadu_ps(live, update + i);
    const __m512i key = _mm512_min_epu32(
        _mm512_and_si512(_mm512_castps_si512(value), abs_mask), inf);
    __mmask16 take = _mm512_mask_cmpgt_epu32_mask(live, key, cut);
    if (ties > 0) {
      const __mmask16 tied = _mm512_mask_cmpeq_epi32_mask(live, key, cut);
      if (tied != 0) {
        take |= static_cast<__mmask16>(TakeLowestTies(tied, ties));
      }
    }
    if (left >= kLanes) {
      const std::uint16_t bits = take;
      std::memcpy(out.bitmap + i / 8, &bits, sizeof(bits));
    } else {
      StoreBitmapWord(take, (left + 7) / 8, out.bitmap + i / 8);
    }
    if (out.residual != nullptr) {
      _mm512_mask_storeu_ps(out.residual + i, live, value);
    }
    _mm512_storeu_si512(out.indices + count,
                        _mm512_maskz_compress_epi32(take, index));
    _mm512_storeu_ps(out.values + count, _mm512_maskz_compress_ps(take, value));
    count += std::popcount(static_cast<unsigned>(take));
  }
  return count;
}

#pragma GCC diagnostic pop

#endif  // FEDCROSS_WIRE_X86

// Passes 2 and 3 of the top-k encoder on the active SIMD tier.
struct TopKKernels {
  std::size_t (*compact_bucket)(const float*, std::size_t, std::uint32_t,
                                std::uint32_t*);
  std::size_t (*select_survivors)(const float*, std::size_t, TopKThreshold,
                                  std::uint64_t, const SelectionOut&);
};

// The AVX-512 kernels run on the AVX-512 tier only, so FEDCROSS_SIMD and
// ops::testing::ForceSimdTier pin the scalar loops as they pin GEMM's.
TopKKernels ActiveTopKKernels() {
#if FEDCROSS_WIRE_X86
  if (ops::ActiveSimdTier() == ops::SimdTier::kAvx512) {
    return {CompactBucketAvx512, SelectSurvivorsAvx512};
  }
#endif
  return {CompactBucket, SelectSurvivors};
}

// Pass 2: the exact k-th largest key of the update, given BuildUpdate's
// level-1 histogram in scratch.histogram (whose copies it folds).
TopKThreshold SelectThreshold(std::uint64_t k, const TopKKernels& kernels,
                              EncodeScratch& scratch) {
  const std::vector<float>& update = scratch.update;
  std::uint32_t* histogram = scratch.histogram.data();
  constexpr std::uint32_t kTopBucket = kInfBits >> kLevel1Shift;
  for (std::uint32_t b = 0; b <= kTopBucket; ++b) {
    histogram[b] += histogram[kLevel1Buckets + b] +
                    histogram[2 * kLevel1Buckets + b] +
                    histogram[3 * kLevel1Buckets + b];
  }
  TopKThreshold threshold;
  const std::uint32_t bucket =
      WalkDown(histogram, kTopBucket, k, threshold.above);

  std::vector<std::uint32_t>& candidates = scratch.candidates;
  candidates.resize(histogram[bucket] + kLanes);
  const std::size_t found = kernels.compact_bucket(
      update.data(), update.size(), bucket, candidates.data());
  FC_CHECK_EQ(found, histogram[bucket]);

  std::array<std::uint32_t, kDigitMask + 1> digits{};
  for (std::size_t c = 0; c < found; ++c) {
    ++digits[(candidates[c] >> kDigitBits) & kDigitMask];
  }
  const std::uint32_t prefix =
      (bucket << kDigitBits) |
      WalkDown(digits.data(), kDigitMask, k, threshold.above);
  digits.fill(0);
  for (std::size_t c = 0; c < found; ++c) {
    digits[candidates[c] & kDigitMask] +=
        (candidates[c] >> kDigitBits) == prefix ? 1 : 0;
  }
  threshold.key = (prefix << kDigitBits) |
                  WalkDown(digits.data(), kDigitMask, k, threshold.above);
  return threshold;
}

// Appends a top-k body for scratch.update: u64 k, the n-bit bitmap, then
// the survivors in index order -- k raw floats, or (quantize) one global
// scale and k stochastically rounded int8s. `max_bits` is BuildUpdate's
// return value.
void EncodeTopKBody(bool quantize, std::uint64_t k, std::uint32_t max_bits,
                    EncodeScratch& scratch, util::Rng& rng,
                    std::vector<float>& residual,
                    std::vector<std::uint8_t>& body) {
  const std::size_t n = scratch.update.size();
  const bool finite = max_bits < kInfBits;
  const TopKKernels kernels = ActiveTopKKernels();
  const TopKThreshold threshold = SelectThreshold(k, kernels, scratch);

  AppendPod(body, k);
  const std::size_t bitmap_offset = body.size();
  body.resize(bitmap_offset + (n + 7) / 8);
  scratch.indices.resize(k + kLanes);
  scratch.values.resize(k + kLanes);
  const SelectionOut out{.bitmap = body.data() + bitmap_offset,
                         .indices = scratch.indices.data(),
                         .values = scratch.values.data(),
                         .residual = finite ? residual.data() : nullptr};
  const std::size_t taken =
      kernels.select_survivors(scratch.update.data(), n, threshold, k, out);
  FC_CHECK_EQ(taken, k);

  if (!quantize) {
    AppendRaw(body, out.values, k * sizeof(float));
    if (finite) {
      for (std::size_t j = 0; j < k; ++j) residual[out.indices[j]] = 0.0f;
    }
    return;
  }
  // With every coordinate finite the largest magnitude always survives
  // (k >= 1, and a tie at the top goes to the lowest index), so the update's
  // maximum is the survivors' maximum.
  const float scale = finite ? std::bit_cast<float>(max_bits) / 127.0f
                             : std::numeric_limits<float>::quiet_NaN();
  AppendPod(body, scale);
  const std::size_t at = body.size();
  body.resize(at + k, 0);
  // A zero or NaN scale ships zeros; a finite update's residual already
  // holds the survivors' updates.
  if (!finite || scale == 0.0f) return;
  std::uint8_t* q8 = body.data() + at;
  for (std::size_t j = 0; j < k; ++j) {
    const std::int8_t q = QuantizeStochastic(out.values[j], scale, rng);
    q8[j] = static_cast<std::uint8_t>(q);
    residual[out.indices[j]] = out.values[j] - q * scale;
  }
}

util::Status DecodeIdentityBody(const ParsedFrame& frame,
                                std::vector<float>& out) {
  if (frame.body.size() != frame.params * sizeof(float)) {
    return Malformed("identity body size");
  }
  out.resize(static_cast<std::size_t>(frame.params));
  std::memcpy(out.data(), frame.body.data(), frame.body.size());
  return util::Status::Ok();
}

util::Status DecodeDeltaBody(const ParsedFrame& frame,
                             std::span<const float> reference,
                             std::vector<float>& out) {
  out.resize(static_cast<std::size_t>(frame.params));
  std::size_t offset = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::uint32_t z = 0;
    if (!ReadVarint(frame.body, offset, z)) {
      return Malformed("truncated delta stream");
    }
    out[i] = BitsFloat(FloatBits(reference[i]) + UnZigZag(z));
  }
  if (offset != frame.body.size()) return Malformed("trailing delta bytes");
  return util::Status::Ok();
}

util::Status DecodeInt8Body(const ParsedFrame& frame,
                            std::span<const float> reference,
                            const ShapeTable& shapes, std::vector<float>& out) {
  std::uint64_t expected = 0;
  for (std::uint32_t len : shapes) expected += 4 + len;
  if (frame.body.size() != expected) return Malformed("int8 body size");
  out.resize(static_cast<std::size_t>(frame.params));
  std::size_t offset = 0;
  std::size_t param = 0;
  for (std::uint32_t len : shapes) {
    float scale = 0.0f;
    ReadPod(frame.body, offset, scale);
    for (std::uint32_t i = 0; i < len; ++i, ++param) {
      auto q = static_cast<std::int8_t>(frame.body[offset++]);
      out[param] = reference[param] + q * scale;
    }
  }
  return util::Status::Ok();
}

// The bitmap word of coordinates [base, base + 64). Bits past n in the last
// byte select nothing, so they are masked out.
std::uint64_t BitmapWordAt(const std::uint8_t* bitmap, std::size_t base,
                           std::size_t n) {
  const std::size_t len = std::min(kWordBits, n - base);
  const std::uint64_t word = LoadBitmapWord(bitmap + base / 8, (len + 7) / 8);
  return len == kWordBits ? word : word & ((std::uint64_t{1} << len) - 1);
}

// Decodes a validated top-k body in one pass over 64-coordinate blocks.
// Unselected coordinates decode as reference + 0.0f, not as a copy: a -0.0
// reference coordinate decodes to +0.0. The block's survivors, whose values
// follow the bitmap in index order, then get reference + delta.
template <bool kQuantized>
void DecodeTopKValues(const std::uint8_t* bitmap, const std::uint8_t* values,
                      float scale, std::span<const float> reference,
                      std::vector<float>& out) {
  const std::size_t n = out.size();
  const float* ref = reference.data();
  float* dst = out.data();
  for (std::size_t base = 0; base < n; base += kWordBits) {
    const std::size_t len = std::min(kWordBits, n - base);
    for (std::size_t j = 0; j < len; ++j) dst[base + j] = ref[base + j] + 0.0f;
    for (std::uint64_t word = BitmapWordAt(bitmap, base, n); word != 0;
         word &= word - 1) {
      const std::size_t i = base + std::countr_zero(word);
      if constexpr (kQuantized) {
        dst[i] = ref[i] + static_cast<std::int8_t>(*values++) * scale;
      } else {
        float delta = 0.0f;
        std::memcpy(&delta, values, sizeof(delta));
        values += sizeof(delta);
        dst[i] = ref[i] + delta;
      }
    }
  }
}

util::Status DecodeTopKBody(bool quantized, const ParsedFrame& frame,
                            std::span<const float> reference,
                            std::vector<float>& out) {
  const std::size_t n = static_cast<std::size_t>(frame.params);
  std::size_t offset = 0;
  std::uint64_t k = 0;
  if (!ReadPod(frame.body, offset, k)) return Malformed("truncated top-k");
  if (k == 0 || k > n) return Malformed("top-k count out of range");
  const std::size_t bitmap_bytes = (n + 7) / 8;
  if (frame.body.size() < offset + bitmap_bytes) {
    return Malformed("truncated top-k bitmap");
  }
  const std::uint8_t* bitmap = frame.body.data() + offset;
  offset += bitmap_bytes;
  std::uint64_t set_bits = 0;
  for (std::size_t base = 0; base < n; base += kWordBits) {
    set_bits += std::popcount(BitmapWordAt(bitmap, base, n));
  }
  if (set_bits != k) return Malformed("top-k bitmap population mismatch");

  float scale = 0.0f;
  if (quantized && !ReadPod(frame.body, offset, scale)) {
    return Malformed("truncated top-k scale");
  }
  const std::size_t value_bytes = quantized ? k : k * sizeof(float);
  if (frame.body.size() != offset + value_bytes) {
    return Malformed("top-k body size");
  }
  out.resize(n);
  const std::uint8_t* values = frame.body.data() + offset;
  if (quantized) {
    DecodeTopKValues<true>(bitmap, values, scale, reference, out);
  } else {
    DecodeTopKValues<false>(bitmap, values, scale, reference, out);
  }
  return util::Status::Ok();
}

}  // namespace

const char* SchemeName(Scheme scheme) {
  switch (scheme) {
    case Scheme::kIdentity:
      return "identity";
    case Scheme::kDelta:
      return "delta";
    case Scheme::kInt8:
      return "int8";
    case Scheme::kTopK:
      return "topk";
    case Scheme::kInt8TopK:
      return "int8_topk";
  }
  return "unknown";
}

util::StatusOr<Scheme> ParseScheme(const std::string& name) {
  if (name == "identity" || name == "none") return Scheme::kIdentity;
  if (name == "delta") return Scheme::kDelta;
  if (name == "int8") return Scheme::kInt8;
  if (name == "topk" || name == "top-k") return Scheme::kTopK;
  if (name == "int8_topk" || name == "int8-topk") return Scheme::kInt8TopK;
  return util::Status::InvalidArgument(
      "unknown codec '" + name +
      "' (want identity|delta|int8|topk|int8_topk)");
}

bool SchemeIsLossy(Scheme scheme) {
  return scheme == Scheme::kInt8 || scheme == Scheme::kTopK ||
         scheme == Scheme::kInt8TopK;
}

namespace {

// Advances the CRC register `crc` (the running value before the final
// inversion) over p[0, n). Slice-by-8: same polynomial and values as the
// textbook byte-at-a-time loop, but eight table lookups per 8-byte block
// break the serial crc -> crc dependency chain.
std::uint32_t Crc32SliceBy8(std::uint32_t crc, const std::uint8_t* p,
                            std::size_t n) {
  static const auto* tables = [] {
    auto* t = new std::uint32_t[8][256];
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (int s = 1; s < 8; ++s) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        t[s][i] = t[0][t[s - 1][i] & 0xffu] ^ (t[s - 1][i] >> 8);
      }
    }
    return t;
  }();
  if constexpr (std::endian::native == std::endian::little) {
    while (n >= 8) {
      std::uint32_t lo = 0;
      std::uint32_t hi = 0;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= crc;
      crc = tables[7][lo & 0xffu] ^ tables[6][(lo >> 8) & 0xffu] ^
            tables[5][(lo >> 16) & 0xffu] ^ tables[4][lo >> 24] ^
            tables[3][hi & 0xffu] ^ tables[2][(hi >> 8) & 0xffu] ^
            tables[1][(hi >> 16) & 0xffu] ^ tables[0][hi >> 24];
      p += 8;
      n -= 8;
    }
  }
  for (; n > 0; --n, ++p) {
    crc = tables[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  }
  return crc;
}

#if FEDCROSS_WIRE_X86

// One fold step: lane x carried forward by the distance the constant pair k
// encodes, plus the next 16 message bytes (carry-less:
// x.lo * k.lo ^ x.hi * k.hi ^ next).
__attribute__((target("pclmul,sse4.1"))) inline __m128i FoldLane(
    __m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

inline __m128i Load16(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Advances the CRC register over p[0, n), n >= 64 and a multiple of 16, by
// carry-less multiplication (Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction", Intel 2009): four 128-bit lanes
// fold 64-byte blocks, fold into one lane, then 64 and 32 bits, and a
// Barrett reduction gives the register. The constants are the paper's
// bit-reflected ones for the IEEE polynomial P, the same in zlib-ng,
// Chromium's zlib and Linux's crc32-pclmul: x^(512 +- 32) mod P carry the
// four lanes 64 bytes ahead, x^(128 +- 32) mod P one lane 16 bytes ahead,
// x^64 mod P takes 64 bits to 32, and P with floor(x^64 / P) drive the
// Barrett step.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t Crc32Clmul(
    std::uint32_t crc, const std::uint8_t* p, std::size_t n) {
  const __m128i fold4 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i fold1 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i fold64 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i barrett = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x0 =
      _mm_xor_si128(Load16(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = Load16(p + 16);
  __m128i x2 = Load16(p + 32);
  __m128i x3 = Load16(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x0 = FoldLane(x0, fold4, Load16(p));
    x1 = FoldLane(x1, fold4, Load16(p + 16));
    x2 = FoldLane(x2, fold4, Load16(p + 32));
    x3 = FoldLane(x3, fold4, Load16(p + 48));
  }
  x0 = FoldLane(x0, fold1, x1);
  x0 = FoldLane(x0, fold1, x2);
  x0 = FoldLane(x0, fold1, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = FoldLane(x0, fold1, Load16(p));

  // 128 -> 64 bits: the low half times x^(128-32) mod P into the high half.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, fold1, 0x10));
  // 64 -> 32 bits.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), fold64,
                                          0x00));
  // Barrett: q = floor(x / P) from the reciprocal, then x ^ q * P.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x0, q), 1));
}

bool HaveClmul() {
  static const bool have =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  return have;
}

#endif  // FEDCROSS_WIRE_X86

}  // namespace

std::uint32_t Crc32(std::span<const std::uint8_t> bytes, std::uint32_t crc) {
  crc ^= 0xffffffffu;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
#if FEDCROSS_WIRE_X86
  // The fold takes every whole 16-byte block of inputs of 64 bytes or more;
  // slice-by-8 finishes the tail.
  if (n >= 64 && HaveClmul()) {
    const std::size_t folded = n & ~std::size_t{15};
    crc = Crc32Clmul(crc, p, folded);
    p += folded;
    n -= folded;
  }
#endif
  return Crc32SliceBy8(crc, p, n) ^ 0xffffffffu;
}

std::uint64_t TopKCount(std::uint64_t params, double fraction) {
  if (params == 0) return 0;
  // Clamp before converting: a negative or NaN product must not wrap.
  const double k = std::round(fraction * static_cast<double>(params));
  if (!(k >= 1.0)) return 1;
  if (k >= static_cast<double>(params)) return params;
  return static_cast<std::uint64_t>(k);
}

util::Status ValidateCodecOptions(const CodecOptions& options) {
  if (options.scheme != Scheme::kTopK && options.scheme != Scheme::kInt8TopK) {
    return util::Status::Ok();
  }
  if (!(options.topk_fraction > 0.0 && options.topk_fraction <= 1.0)) {
    return util::Status::InvalidArgument(
        std::string("the ") + SchemeName(options.scheme) +
        " codec keeps a fraction of the coordinates in (0, 1], got " +
        std::to_string(options.topk_fraction));
  }
  return util::Status::Ok();
}

void EncodeDispatch(std::span<const float> params, const ShapeTable& shapes,
                    std::vector<std::uint8_t>& frame) {
  FC_CHECK_EQ(params.size(), ShapeSum(shapes));
  frame.reserve(DispatchWireBytes(params.size(), shapes));
  const std::size_t body_offset =
      BeginFrame(Scheme::kIdentity, shapes, params.size(), frame);
  AppendRaw(frame, params.data(), params.size() * sizeof(float));
  SealFrame(body_offset, frame);
}

util::Status DecodeDispatch(std::span<const std::uint8_t> frame,
                            const ShapeTable& shapes,
                            std::vector<float>& out) {
  ParsedFrame parsed;
  FC_RETURN_IF_ERROR(ParseFrame(frame, shapes, parsed));
  if (parsed.scheme != Scheme::kIdentity) {
    return Malformed("dispatch frames must use the identity scheme");
  }
  return DecodeIdentityBody(parsed, out);
}

std::uint64_t DispatchWireBytes(std::uint64_t params,
                                const ShapeTable& shapes) {
  return HeaderBytes(shapes.size()) + params * sizeof(float) + 4;
}

void EncodeUpload(const CodecOptions& options, std::span<const float> trained,
                  std::span<const float> reference, const ShapeTable& shapes,
                  std::vector<float>& residual, util::Rng& rng,
                  std::vector<std::uint8_t>& frame) {
  const std::size_t n = trained.size();
  FC_CHECK_EQ(n, reference.size());
  FC_CHECK_EQ(n, ShapeSum(shapes));
  // The scheme body is appended straight to the frame.
  const std::size_t body_offset = BeginFrame(options.scheme, shapes, n, frame);

  switch (options.scheme) {
    case Scheme::kIdentity:
      AppendRaw(frame, trained.data(), n * sizeof(float));
      break;
    case Scheme::kDelta:
      for (std::size_t i = 0; i < n; ++i) {
        AppendVarint(frame,
                     ZigZag(FloatBits(trained[i]) - FloatBits(reference[i])));
      }
      break;
    case Scheme::kInt8:
    case Scheme::kTopK:
    case Scheme::kInt8TopK: {
      if (residual.empty()) residual.assign(n, 0.0f);
      FC_CHECK_EQ(residual.size(), n);
      EncodeScratch& scratch = Scratch();
      if (options.scheme == Scheme::kInt8) {
        const std::uint32_t max_bits =
            BuildUpdate(trained, reference, residual, scratch.update, nullptr);
        EncodeInt8Body(shapes, scratch.update, max_bits < kInfBits, rng,
                       residual, frame);
      } else {
        scratch.histogram.assign(kLevel1Copies * kLevel1Buckets, 0);
        const std::uint32_t max_bits =
            BuildUpdate(trained, reference, residual, scratch.update,
                        scratch.histogram.data());
        EncodeTopKBody(options.scheme == Scheme::kInt8TopK,
                       TopKCount(n, options.topk_fraction), max_bits, scratch,
                       rng, residual, frame);
      }
      break;
    }
  }
  SealFrame(body_offset, frame);
}

util::Status DecodeUpload(std::span<const std::uint8_t> frame,
                          std::span<const float> reference,
                          const ShapeTable& shapes, std::vector<float>& out) {
  ParsedFrame parsed;
  FC_RETURN_IF_ERROR(ParseFrame(frame, shapes, parsed));
  if (parsed.params != reference.size()) {
    return Malformed("param count disagrees with the dispatched model");
  }
  switch (parsed.scheme) {
    case Scheme::kIdentity:
      return DecodeIdentityBody(parsed, out);
    case Scheme::kDelta:
      return DecodeDeltaBody(parsed, reference, out);
    case Scheme::kInt8:
      return DecodeInt8Body(parsed, reference, shapes, out);
    case Scheme::kTopK:
      return DecodeTopKBody(/*quantized=*/false, parsed, reference, out);
    case Scheme::kInt8TopK:
      return DecodeTopKBody(/*quantized=*/true, parsed, reference, out);
  }
  return Malformed("unreachable scheme");
}

}  // namespace fedcross::comm
