// Per-layer attribution for the traced run: the spans the library already
// records (phase.*, plan.lockstep, client.train, pool.task), read back from
// the obs trace recorder, plus the benchmark's own bench.* spans around
// probe calls into each layer's public API.
#ifndef FCBENCH_PROBES_H_
#define FCBENCH_PROBES_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fl/algorithm.h"
#include "workloads.h"

namespace fcbench {

// Spans moved out of obs::TraceRecorder, summed by name.
class SpanLedger {
 public:
  // `export_path` is the scratch file each harvest exports through.
  explicit SpanLedger(std::string export_path);

  // Moves every span the recorder holds into the ledger and clears the
  // recorder. Returns the summed self time (ms) of the phase.* spans moved,
  // or a negative value when the export could not be read back.
  double Harvest();

  struct Total {
    double ms = 0.0;
    std::int64_t count = 0;
  };
  // Per span name. phase.* totals are self times: a phase's duration minus
  // the phase spans nested inside it on the same thread.
  const std::map<std::string, Total>& totals() const { return totals_; }

  // Summed wall duration of the phase.train spans, and the pool.task time
  // that overlaps them (on any thread), in ms.
  double train_window_ms() const { return train_window_ms_; }
  double pool_in_train_ms() const { return pool_in_train_ms_; }

  // Writes every harvested span as Chrome trace-event JSON.
  bool WriteTrace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::int64_t ts_us = 0;
    std::int64_t dur_us = 0;
    std::uint32_t tid = 0;
  };

  std::string export_path_;
  std::vector<Span> spans_;
  std::map<std::string, Total> totals_;
  double train_window_ms_ = 0.0;
  double pool_in_train_ms_ = 0.0;
};

// Size of the reference single-thread ops::Gemm probe (n x n x n).
constexpr int kGemmN = 256;

// Members of the masked-aggregation probe's cohort (the last one drops).
int MaskedCohort(const Workload& w);

// Calls each layer's public API on the live state of `server` under bench.*
// spans (tracing must be on); `seed` is the seed `server` was built from.
// Returns an empty string, or what went wrong.
std::string RunProbes(const Workload& w, std::uint64_t seed,
                      fedcross::fl::FlAlgorithm& server);

}  // namespace fcbench

#endif  // FCBENCH_PROBES_H_
