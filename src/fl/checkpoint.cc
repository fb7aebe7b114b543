#include "fl/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "comm/wire.h"

namespace fedcross::fl {
namespace {

constexpr std::uint32_t kMagic = 0x46435253;  // "FCRS"
// The one format this build writes and reads.
constexpr std::uint32_t kVersion = 6;
constexpr std::size_t kHeaderBytes = 2 * sizeof(std::uint32_t);
constexpr std::size_t kTrailerBytes = sizeof(std::uint32_t);

// Length prefixes are validated against the remaining buffer before any
// allocation, so a corrupted count cannot trigger a huge resize.
constexpr std::uint64_t kMaxReasonableCount = 1ULL << 40;

}  // namespace

void StateWriter::WriteU32(std::uint32_t value) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
  bytes_.insert(bytes_.end(), p, p + sizeof(value));
}

void StateWriter::WriteU64(std::uint64_t value) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
  bytes_.insert(bytes_.end(), p, p + sizeof(value));
}

void StateWriter::WriteI64(std::int64_t value) {
  WriteU64(static_cast<std::uint64_t>(value));
}

void StateWriter::WriteF32(float value) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  WriteU32(bits);
}

void StateWriter::WriteF64(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  WriteU64(bits);
}

void StateWriter::WriteBool(bool value) {
  bytes_.push_back(value ? 1 : 0);
}

void StateWriter::WriteFloats(const FlatParams& values) {
  WriteU64(values.size());
  const auto* p = reinterpret_cast<const std::uint8_t*>(values.data());
  bytes_.insert(bytes_.end(), p, p + values.size() * sizeof(float));
}

void StateWriter::WriteInts(const std::vector<int>& values) {
  WriteU64(values.size());
  for (int v : values) WriteU32(static_cast<std::uint32_t>(v));
}

void StateWriter::WriteInts64(const std::vector<std::int64_t>& values) {
  WriteU64(values.size());
  for (std::int64_t v : values) WriteI64(v);
}

void StateWriter::WriteDoubles(const std::vector<double>& values) {
  WriteU64(values.size());
  for (double v : values) WriteF64(v);
}

util::Status StateReader::ReadRaw(void* dst, std::size_t count) {
  if (offset_ + count > bytes_.size()) {
    return util::Status::InvalidArgument(
        "truncated checkpoint: need " + std::to_string(count) +
        " bytes at offset " + std::to_string(offset_) + ", have " +
        std::to_string(bytes_.size() - offset_));
  }
  // An empty vector's data() may be null, and memcpy must not see it.
  if (count > 0) std::memcpy(dst, bytes_.data() + offset_, count);
  offset_ += count;
  return util::Status::Ok();
}

util::Status StateReader::ReadU32(std::uint32_t& value) {
  return ReadRaw(&value, sizeof(value));
}

util::Status StateReader::ReadU64(std::uint64_t& value) {
  return ReadRaw(&value, sizeof(value));
}

util::Status StateReader::ReadI64(std::int64_t& value) {
  std::uint64_t bits = 0;
  FC_RETURN_IF_ERROR(ReadU64(bits));
  value = static_cast<std::int64_t>(bits);
  return util::Status::Ok();
}

util::Status StateReader::ReadF32(float& value) {
  std::uint32_t bits = 0;
  FC_RETURN_IF_ERROR(ReadU32(bits));
  std::memcpy(&value, &bits, sizeof(value));
  return util::Status::Ok();
}

util::Status StateReader::ReadF64(double& value) {
  std::uint64_t bits = 0;
  FC_RETURN_IF_ERROR(ReadU64(bits));
  std::memcpy(&value, &bits, sizeof(value));
  return util::Status::Ok();
}

util::Status StateReader::ReadBool(bool& value) {
  std::uint8_t byte = 0;
  FC_RETURN_IF_ERROR(ReadRaw(&byte, 1));
  value = byte != 0;
  return util::Status::Ok();
}

util::Status StateReader::ReadFloats(FlatParams& values) {
  std::uint64_t count = 0;
  FC_RETURN_IF_ERROR(ReadU64(count));
  if (count > kMaxReasonableCount ||
      offset_ + count * sizeof(float) > bytes_.size()) {
    return util::Status::InvalidArgument(
        "truncated checkpoint: float vector of " + std::to_string(count) +
        " elements exceeds remaining bytes");
  }
  values.resize(static_cast<std::size_t>(count));
  return ReadRaw(values.data(), values.size() * sizeof(float));
}

util::Status StateReader::ReadInts(std::vector<int>& values) {
  std::uint64_t count = 0;
  FC_RETURN_IF_ERROR(ReadU64(count));
  if (count > kMaxReasonableCount ||
      offset_ + count * sizeof(std::uint32_t) > bytes_.size()) {
    return util::Status::InvalidArgument(
        "truncated checkpoint: int vector of " + std::to_string(count) +
        " elements exceeds remaining bytes");
  }
  values.resize(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::uint32_t v = 0;
    FC_RETURN_IF_ERROR(ReadU32(v));
    values[i] = static_cast<int>(v);
  }
  return util::Status::Ok();
}

util::Status StateReader::ReadInts64(std::vector<std::int64_t>& values) {
  std::uint64_t count = 0;
  FC_RETURN_IF_ERROR(ReadU64(count));
  if (count > kMaxReasonableCount ||
      offset_ + count * sizeof(std::uint64_t) > bytes_.size()) {
    return util::Status::InvalidArgument(
        "truncated checkpoint: int64 vector of " + std::to_string(count) +
        " elements exceeds remaining bytes");
  }
  values.resize(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < values.size(); ++i) {
    FC_RETURN_IF_ERROR(ReadI64(values[i]));
  }
  return util::Status::Ok();
}

util::Status StateReader::ReadDoubles(std::vector<double>& values) {
  std::uint64_t count = 0;
  FC_RETURN_IF_ERROR(ReadU64(count));
  if (count > kMaxReasonableCount ||
      offset_ + count * sizeof(double) > bytes_.size()) {
    return util::Status::InvalidArgument(
        "truncated checkpoint: double vector of " + std::to_string(count) +
        " elements exceeds remaining bytes");
  }
  values.resize(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < values.size(); ++i) {
    FC_RETURN_IF_ERROR(ReadF64(values[i]));
  }
  return util::Status::Ok();
}

util::Status WriteStateFile(const std::string& path,
                            const StateWriter& writer) {
  const std::uint32_t header[2] = {kMagic, kVersion};
  const auto* header_bytes = reinterpret_cast<const std::uint8_t*>(header);
  const std::uint32_t crc =
      comm::Crc32(writer.bytes(), comm::Crc32({header_bytes, kHeaderBytes}));
  std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.good()) return util::Status::Internal("cannot open " + tmp);
    out.write(reinterpret_cast<const char*>(header), kHeaderBytes);
    out.write(reinterpret_cast<const char*>(writer.bytes().data()),
              static_cast<std::streamsize>(writer.bytes().size()));
    out.write(reinterpret_cast<const char*>(&crc), kTrailerBytes);
    if (!out.good()) return util::Status::Internal("short write to " + tmp);
  }
  // Atomic publish: the previous checkpoint stays intact until the new one
  // is fully on disk.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return util::Status::Internal("cannot rename " + tmp + " to " + path);
  }
  return util::Status::Ok();
}

util::StatusOr<StateReader> ReadStateFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.good()) return util::Status::NotFound("cannot open " + path);
  std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in.good()) return util::Status::Internal("short read from " + path);

  if (bytes.size() < kHeaderBytes) {
    return util::Status::InvalidArgument("truncated checkpoint header");
  }
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::memcpy(&magic, bytes.data(), sizeof(magic));
  std::memcpy(&version, bytes.data() + sizeof(magic), sizeof(version));
  if (magic != kMagic) {
    return util::Status::InvalidArgument("not a FedCross training checkpoint");
  }
  if (version != kVersion) {
    return util::Status::InvalidArgument(
        "unsupported training checkpoint version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kVersion) + ")");
  }
  if (bytes.size() < kHeaderBytes + kTrailerBytes) {
    return util::Status::InvalidArgument("truncated checkpoint: no CRC-32");
  }
  // The CRC covers header + body and is checked before any body field is
  // parsed: a flipped bit never reaches the structural checks.
  const std::size_t sealed = bytes.size() - kTrailerBytes;
  std::uint32_t stored = 0;
  std::memcpy(&stored, bytes.data() + sealed, sizeof(stored));
  if (comm::Crc32({bytes.data(), sealed}) != stored) {
    return util::Status::InvalidArgument("checkpoint CRC-32 mismatch");
  }
  bytes.resize(sealed);
  bytes.erase(bytes.begin(), bytes.begin() + kHeaderBytes);
  return StateReader(std::move(bytes));
}

}  // namespace fedcross::fl
