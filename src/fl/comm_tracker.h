#ifndef FEDCROSS_FL_COMM_TRACKER_H_
#define FEDCROSS_FL_COMM_TRACKER_H_

#include <cstdint>

namespace fedcross::fl {

// Accounts the bytes every FL algorithm moves between cloud and clients,
// backing the paper's Table I / Section IV-C3 communication analysis.
// Algorithms call AddDownload for each dispatch (model, control variate,
// generator, ...) and AddUpload for each client upload.
//
// Each direction keeps two exact integer counters: `raw` is the logical
// payload (float count x 4 — what the paper's analysis compares), `wire` is
// the encoded frame size actually produced by the comm/wire.h codec. With
// the identity codec wire exceeds raw only by the frame header; the lossy
// codecs push wire far below raw, and wire/raw is the measured compression
// ratio reported by table1_comm_overhead and the obs round events.
class CommTracker {
 public:
  void AddDownload(std::uint64_t raw_bytes, std::uint64_t wire_bytes) {
    round_down_ += raw_bytes;
    total_down_ += raw_bytes;
    round_wire_down_ += wire_bytes;
    total_wire_down_ += wire_bytes;
  }
  void AddUpload(std::uint64_t raw_bytes, std::uint64_t wire_bytes) {
    round_up_ += raw_bytes;
    total_up_ += raw_bytes;
    round_wire_up_ += wire_bytes;
    total_wire_up_ += wire_bytes;
  }
  // Lost work: bytes that crossed the wire but never reached aggregation —
  // dispatches to clients that dropped out or timed out, and uploads the
  // server screened away or abandoned. Wasted bytes are counted *in
  // addition to* the directional counters above (they are a view of the
  // same traffic, not a third direction), so wasted/wire is the fraction
  // of the round's traffic that bought nothing.
  void AddWasted(std::uint64_t raw_bytes, std::uint64_t wire_bytes) {
    round_wasted_ += raw_bytes;
    total_wasted_ += raw_bytes;
    round_wire_wasted_ += wire_bytes;
    total_wire_wasted_ += wire_bytes;
  }

  // Convenience: a payload of `floats` float32 values.
  static std::uint64_t FloatBytes(std::int64_t floats) {
    return static_cast<std::uint64_t>(floats) * sizeof(float);
  }

  // Per-round counters; reset at round start.
  void BeginRound() {
    round_down_ = 0;
    round_up_ = 0;
    round_wire_down_ = 0;
    round_wire_up_ = 0;
    round_wasted_ = 0;
    round_wire_wasted_ = 0;
  }
  std::uint64_t round_download_bytes() const { return round_down_; }
  std::uint64_t round_upload_bytes() const { return round_up_; }
  std::uint64_t round_wire_download_bytes() const { return round_wire_down_; }
  std::uint64_t round_wire_upload_bytes() const { return round_wire_up_; }
  std::uint64_t round_wasted_bytes() const { return round_wasted_; }
  std::uint64_t round_wire_wasted_bytes() const { return round_wire_wasted_; }

  // Cumulative counters.
  std::uint64_t total_download_bytes() const { return total_down_; }
  std::uint64_t total_upload_bytes() const { return total_up_; }
  std::uint64_t total_wire_download_bytes() const { return total_wire_down_; }
  std::uint64_t total_wire_upload_bytes() const { return total_wire_up_; }
  std::uint64_t total_wasted_bytes() const { return total_wasted_; }
  std::uint64_t total_wire_wasted_bytes() const { return total_wire_wasted_; }

  // Checkpoint restore: resets to the given cumulative totals with the
  // per-round counters cleared.
  void Restore(std::uint64_t total_down, std::uint64_t total_up,
               std::uint64_t total_wire_down, std::uint64_t total_wire_up,
               std::uint64_t total_wasted, std::uint64_t total_wire_wasted) {
    total_down_ = total_down;
    total_up_ = total_up;
    total_wire_down_ = total_wire_down;
    total_wire_up_ = total_wire_up;
    total_wasted_ = total_wasted;
    total_wire_wasted_ = total_wire_wasted;
    BeginRound();
  }

 private:
  std::uint64_t round_down_ = 0;
  std::uint64_t round_up_ = 0;
  std::uint64_t round_wire_down_ = 0;
  std::uint64_t round_wire_up_ = 0;
  std::uint64_t round_wasted_ = 0;
  std::uint64_t round_wire_wasted_ = 0;
  std::uint64_t total_down_ = 0;
  std::uint64_t total_up_ = 0;
  std::uint64_t total_wire_down_ = 0;
  std::uint64_t total_wire_up_ = 0;
  std::uint64_t total_wasted_ = 0;
  std::uint64_t total_wire_wasted_ = 0;
};

}  // namespace fedcross::fl

#endif  // FEDCROSS_FL_COMM_TRACKER_H_
