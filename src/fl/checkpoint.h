#ifndef FEDCROSS_FL_CHECKPOINT_H_
#define FEDCROSS_FL_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fl/types.h"
#include "util/status.h"

namespace fedcross::fl {

// Binary serialisation of full FL training state (crash-safe checkpoints).
//
// A training checkpoint stores everything a killed run needs to resume
// bit-identically: the config fingerprint, the completed-round counter, the
// run RNG state, communication totals (wasted bytes included), fault
// statistics, the metrics history, the codec error-feedback residuals, the
// async engine (virtual clock, version counters, the in-flight dispatch
// table), the privacy ledger, and each algorithm's model state (global
// params, SCAFFOLD variates, FedCross middleware, ...). Per-client tables
// are sparse: only clients that ever trained cost bytes.
// FlAlgorithm::SaveCheckpoint / LoadCheckpoint drive these primitives;
// algorithm subclasses append their state through the SaveExtraState /
// LoadExtraState hooks.
//
// The file is magic ("FCRS") + format version + body + a CRC-32 of
// everything before it. There is one format: a reader accepts only the
// version this build writes, and checks the CRC before it parses a single
// body field, so a flipped bit anywhere in the file is an InvalidArgument,
// never a silently different model. Writes go to `path + ".tmp"` and are
// renamed into place so a crash mid-write can never clobber the previous
// good checkpoint. All body reads are bounds-checked and return
// util::Status on truncated or malformed input.

// Appends little-endian POD values to a byte buffer.
class StateWriter {
 public:
  void WriteU32(std::uint32_t value);
  void WriteU64(std::uint64_t value);
  void WriteI64(std::int64_t value);
  void WriteF32(float value);
  void WriteF64(double value);
  void WriteBool(bool value);
  // Length-prefixed vectors (u64 count + raw elements).
  void WriteFloats(const FlatParams& values);
  void WriteInts(const std::vector<int>& values);
  void WriteInts64(const std::vector<std::int64_t>& values);
  void WriteDoubles(const std::vector<double>& values);

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
};

// Bounds-checked reader over a checkpoint body. Every read returns
// InvalidArgument("truncated checkpoint ...") when the buffer runs out.
class StateReader {
 public:
  StateReader() = default;
  explicit StateReader(std::vector<std::uint8_t> bytes)
      : bytes_(std::move(bytes)) {}

  util::Status ReadU32(std::uint32_t& value);
  util::Status ReadU64(std::uint64_t& value);
  util::Status ReadI64(std::int64_t& value);
  util::Status ReadF32(float& value);
  util::Status ReadF64(double& value);
  util::Status ReadBool(bool& value);
  util::Status ReadFloats(FlatParams& values);
  util::Status ReadInts(std::vector<int>& values);
  util::Status ReadInts64(std::vector<std::int64_t>& values);
  util::Status ReadDoubles(std::vector<double>& values);

  bool AtEnd() const { return offset_ == bytes_.size(); }

 private:
  util::Status ReadRaw(void* dst, std::size_t count);

  std::vector<std::uint8_t> bytes_;
  std::size_t offset_ = 0;
};

// Atomically writes header + body + CRC-32 to `path` (tmp file + rename).
util::Status WriteStateFile(const std::string& path, const StateWriter& writer);

// Reads `path`, validates magic, version and CRC, and returns a reader over
// the body.
util::StatusOr<StateReader> ReadStateFile(const std::string& path);

}  // namespace fedcross::fl

#endif  // FEDCROSS_FL_CHECKPOINT_H_
