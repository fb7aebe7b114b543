#include "comm/wire.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "util/check.h"

namespace fedcross::comm {
namespace {

constexpr std::uint32_t kMagic = 0x50574346;  // "FCWP"
constexpr std::uint8_t kFormatVersion = 1;
constexpr std::uint32_t kMaxTensors = 1u << 20;

// Thread-local scratch for the variable-size intermediates (update vectors,
// top-k workspaces). Pool workers are long-lived, so the capacity is reused
// across rounds and the steady-state encode path allocates nothing. Scheme
// bodies are written straight into the caller's frame.
struct EncodeScratch {
  std::vector<float> update;
  std::vector<std::uint32_t> mags;       // top-k magnitude bit patterns
  std::vector<std::uint32_t> histogram;  // radix-select buckets
  std::vector<std::uint32_t> indices;    // top-k survivors, ascending
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

// The error-feedback input: update = (trained - reference) + residual.
// Returns true when every coordinate is finite; a corrupted (NaN/Inf)
// upload is still framed -- it must reach the server-side screen -- but the
// caller then skips the residual update.
bool BuildUpdate(std::span<const float> trained, std::span<const float> ref,
                 const std::vector<float>& residual,
                 std::vector<float>& update) {
  const std::size_t n = trained.size();
  update.resize(n);
  bool finite = true;
  for (std::size_t i = 0; i < n; ++i) {
    float e = trained[i] - ref[i];
    if (!residual.empty()) e += residual[i];
    update[i] = e;
    finite &= std::isfinite(e) != 0;
  }
  return finite;
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

// Deterministic top-k selection over magnitudes: strictly-larger values
// first, ties broken toward the lowest index. Non-finite coordinates rank
// as +inf so corrupted values always survive into the frame (and get
// screened server-side). Sets the survivors' bits in the zeroed n-bit
// `bitmap` and lists them, ascending, in scratch.indices.
//
// The threshold -- the k-th largest magnitude -- comes from an exact O(n)
// radix select. The magnitudes are fabs values with non-finite ones mapped
// to +inf, so they are non-negative and never NaN, and such floats order
// exactly like their uint32 bit patterns. One 16-bit histogram over the
// high halves finds the threshold's bucket, a second over the low halves
// inside that bucket finds the pattern itself.
void SelectTopK(const std::vector<float>& update, std::uint64_t k,
                EncodeScratch& scratch, std::uint8_t* bitmap) {
  constexpr std::uint32_t kInfBits = 0x7f800000u;
  constexpr std::size_t kBuckets = 1u << 16;
  const std::size_t n = update.size();
  std::vector<std::uint32_t>& mags = scratch.mags;
  std::vector<std::uint32_t>& histogram = scratch.histogram;
  mags.resize(n);
  histogram.assign(kBuckets, 0);
  for (std::size_t i = 0; i < n; ++i) {
    // fabs clears the sign bit; every NaN pattern lies above +inf's.
    const std::uint32_t bits =
        std::min(FloatBits(std::fabs(update[i])), kInfBits);
    mags[i] = bits;
    ++histogram[bits >> 16];
  }
  // Walk buckets down from +inf's until they hold k magnitudes; `above`
  // counts those strictly above the threshold throughout.
  std::uint64_t above = 0;
  std::uint32_t high = kInfBits >> 16;
  while (above + histogram[high] < k) above += histogram[high--];
  std::fill(histogram.begin(), histogram.end(), 0);
  for (std::uint32_t m : mags) {
    if ((m >> 16) == high) ++histogram[m & 0xffffu];
  }
  std::uint32_t low = kBuckets - 1;
  while (above + histogram[low] < k) above += histogram[low--];
  const std::uint32_t threshold = (high << 16) | low;
  std::uint64_t at_threshold = k - above;

  std::vector<std::uint32_t>& indices = scratch.indices;
  indices.clear();
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
  FC_CHECK_EQ(indices.size(), k);
}

void EncodeTopKBody(bool quantize, double fraction,
                    const std::vector<float>& update, bool finite,
                    util::Rng& rng, std::vector<float>& residual,
                    std::vector<std::uint8_t>& body) {
  const std::size_t n = update.size();
  const std::uint64_t k = TopKCount(n, fraction);
  EncodeScratch& scratch = Scratch();
  AppendPod(body, k);
  const std::size_t bitmap_offset = body.size();
  body.resize(bitmap_offset + (n + 7) / 8, 0);
  SelectTopK(update, k, scratch, body.data() + bitmap_offset);
  const std::vector<std::uint32_t>& indices = scratch.indices;

  if (finite) {
    for (std::size_t i = 0; i < n; ++i) residual[i] = update[i];
  }
  if (!quantize) {
    std::size_t at = body.size();
    body.resize(at + indices.size() * sizeof(float));
    for (std::uint32_t i : indices) {
      std::memcpy(body.data() + at, &update[i], sizeof(float));
      at += sizeof(float);
      if (finite) residual[i] = 0.0f;
    }
    return;
  }
  float maxabs = 0.0f;
  for (std::uint32_t i : indices) {
    float a = std::fabs(update[i]);
    if (std::isfinite(a) && a > maxabs) maxabs = a;
  }
  float scale =
      finite ? maxabs / 127.0f : std::numeric_limits<float>::quiet_NaN();
  AppendPod(body, scale);
  if (!finite || scale == 0.0f) {
    body.insert(body.end(), indices.size(), 0);
    if (finite) {
      for (std::uint32_t i : indices) residual[i] = update[i];
    }
  } else {
    std::size_t at = body.size();
    body.resize(at + indices.size());
    for (std::uint32_t i : indices) {
      std::int8_t q = QuantizeStochastic(update[i], scale, rng);
      body[at++] = static_cast<std::uint8_t>(q);
      residual[i] = update[i] - q * scale;
    }
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
  std::span<const std::uint8_t> bitmap =
      frame.body.subspan(offset, bitmap_bytes);
  offset += bitmap_bytes;
  // Bits past n in the last byte select nothing: mask them out of the
  // population count and the walk.
  const std::size_t full_bytes = n / 8;
  const unsigned tail =
      n % 8 == 0 ? 0u : bitmap[full_bytes] & ((1u << (n % 8)) - 1u);
  std::uint64_t set_bits = std::popcount(tail);
  std::size_t b = 0;
  for (; b + sizeof(std::uint64_t) <= full_bytes; b += sizeof(std::uint64_t)) {
    std::uint64_t word = 0;
    std::memcpy(&word, bitmap.data() + b, sizeof(word));
    set_bits += std::popcount(word);
  }
  for (; b < full_bytes; ++b) set_bits += std::popcount(bitmap[b]);
  if (set_bits != k) return Malformed("top-k bitmap population mismatch");

  float scale = 0.0f;
  if (quantized && !ReadPod(frame.body, offset, scale)) {
    return Malformed("truncated top-k scale");
  }
  const std::size_t value_bytes = quantized ? k : k * sizeof(float);
  if (frame.body.size() != offset + value_bytes) {
    return Malformed("top-k body size");
  }
  // Unselected coordinates decode as reference + 0.0f, not as a copy: a
  // -0.0 reference coordinate decodes to +0.0.
  out.resize(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = reference[i] + 0.0f;
  // The k values follow the bitmap in index order.
  const std::uint8_t* values = frame.body.data() + offset;
  for (std::size_t byte = 0; byte < bitmap_bytes; ++byte) {
    unsigned bits = byte == full_bytes ? tail : bitmap[byte];
    while (bits != 0) {
      const std::size_t i = byte * 8 + std::countr_zero(bits);
      bits &= bits - 1;
      float delta = 0.0f;
      if (quantized) {
        delta = static_cast<std::int8_t>(*values++) * scale;
      } else {
        std::memcpy(&delta, values, sizeof(delta));
        values += sizeof(delta);
      }
      out[i] = reference[i] + delta;
    }
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

std::uint32_t Crc32(std::span<const std::uint8_t> bytes) {
  // Slice-by-8: same polynomial and values as the textbook byte-at-a-time
  // loop, but eight table lookups per 8-byte block break the serial
  // crc -> crc dependency chain that made the checksum show up beside the
  // GEMMs in round profiles (every frame is checksummed twice per hop).
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
  std::uint32_t crc = 0xffffffffu;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
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
  return crc ^ 0xffffffffu;
}

std::uint64_t TopKCount(std::uint64_t params, double fraction) {
  if (params == 0) return 0;
  auto k = static_cast<std::uint64_t>(
      std::llround(fraction * static_cast<double>(params)));
  return std::clamp<std::uint64_t>(k, 1, params);
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
      std::vector<float>& update = Scratch().update;
      bool finite = BuildUpdate(trained, reference, residual, update);
      if (options.scheme == Scheme::kInt8) {
        EncodeInt8Body(shapes, update, finite, rng, residual, frame);
      } else {
        EncodeTopKBody(options.scheme == Scheme::kInt8TopK,
                       options.topk_fraction, update, finite, rng, residual,
                       frame);
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
