#include "probes.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <utility>

#include "comm/wire.h"
#include "core/fedcross.h"
#include "fl/evaluator.h"
#include "fl/model_pool.h"
#include "obs/trace.h"
#include "privacy/dp.h"
#include "privacy/masking.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace fcbench {
namespace {

namespace comm = fedcross::comm;
namespace core = fedcross::core;
namespace fl = fedcross::fl;
namespace obs = fedcross::obs;
namespace privacy = fedcross::privacy;
namespace util = fedcross::util;

constexpr int kCallReps = 20;   // per-call probes (codec, DP sanitiser)
constexpr int kRoundReps = 3;   // per-round probes (selection, fusion, masking)
constexpr int kEvalReps = 5;
constexpr int kGemmReps = 40;
constexpr int kMaxMaskedCohort = 8;

// Reads an integer field `"key":<n>` from one exported trace line.
bool ReadField(const std::string& line, const char* key, std::int64_t* out) {
  std::size_t at = line.find(key);
  if (at == std::string::npos) return false;
  *out = std::strtoll(line.c_str() + at + std::strlen(key), nullptr, 10);
  return true;
}

bool IsPhase(const std::string& name) { return name.rfind("phase.", 0) == 0; }

}  // namespace

SpanLedger::SpanLedger(std::string export_path)
    : export_path_(std::move(export_path)) {}

double SpanLedger::Harvest() {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  const bool written = recorder.WriteJson(export_path_);
  recorder.Clear();
  std::ifstream in(export_path_);
  if (!written || !in) return -1.0;

  std::vector<Span> batch;
  std::string line;
  while (std::getline(in, line)) {
    static const char kName[] = "\"name\":\"";
    std::size_t at = line.find(kName);
    if (at == std::string::npos) continue;
    at += sizeof(kName) - 1;
    std::size_t end = line.find('"', at);
    Span span;
    std::int64_t tid = 0;
    if (end == std::string::npos || !ReadField(line, "\"ts\":", &span.ts_us) ||
        !ReadField(line, "\"dur\":", &span.dur_us) ||
        !ReadField(line, "\"tid\":", &tid)) {
      return -1.0;
    }
    span.name = line.substr(at, end - at);
    span.tid = static_cast<std::uint32_t>(tid);
    batch.push_back(std::move(span));
  }

  // Self time of each phase span: its duration minus its direct phase
  // children on the same thread (the export is sorted by start time).
  std::vector<std::int64_t> child_us(batch.size(), 0);
  std::vector<std::size_t> open;  // stack of enclosing phase spans
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (IsPhase(batch[i].name)) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return batch[a].tid != batch[b].tid ? batch[a].tid < batch[b].tid
                                        : batch[a].ts_us < batch[b].ts_us;
  });
  for (std::size_t i : order) {
    const Span& span = batch[i];
    while (!open.empty()) {
      const Span& top = batch[open.back()];
      if (top.tid == span.tid &&
          span.ts_us + span.dur_us <= top.ts_us + top.dur_us &&
          span.ts_us >= top.ts_us) {
        break;
      }
      open.pop_back();
    }
    if (!open.empty()) child_us[open.back()] += span.dur_us;
    open.push_back(i);
  }

  // Thread-pool task time that falls inside phase.train spans: other pool
  // users (evaluator shards, dispatch) run outside them and are left out.
  std::vector<std::pair<std::int64_t, std::int64_t>> train;  // [begin, end)
  for (const Span& span : batch) {
    if (span.name == "phase.train") {
      train.emplace_back(span.ts_us, span.ts_us + span.dur_us);
      train_window_ms_ += static_cast<double>(span.dur_us) / 1000.0;
    }
  }
  for (const Span& span : batch) {
    if (span.name != "pool.task") continue;
    for (const auto& [begin, end] : train) {
      const std::int64_t overlap = std::min(end, span.ts_us + span.dur_us) -
                                   std::max(begin, span.ts_us);
      if (overlap > 0) {
        pool_in_train_ms_ += static_cast<double>(overlap) / 1000.0;
      }
    }
  }

  double phase_self_ms = 0.0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Span& span = batch[i];
    double ms = static_cast<double>(span.dur_us - child_us[i]) / 1000.0;
    if (IsPhase(span.name)) phase_self_ms += ms;
    Total& total = totals_[span.name];
    total.ms += ms;
    ++total.count;
  }
  spans_.insert(spans_.end(), std::make_move_iterator(batch.begin()),
                std::make_move_iterator(batch.end()));
  return phase_self_ms;
}

bool SpanLedger::WriteTrace(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", file);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%lld,\"dur\":%lld,"
                 "\"pid\":0,\"tid\":%u}",
                 i > 0 ? "," : "", span.name.c_str(),
                 static_cast<long long>(span.ts_us),
                 static_cast<long long>(span.dur_us), span.tid);
  }
  std::fputs("\n]}\n", file);
  bool ok = std::fflush(file) == 0;
  return std::fclose(file) == 0 && ok;
}

int MaskedCohort(const Workload& w) {
  return std::min(w.config.clients_per_round, kMaxMaskedCohort);
}

std::string RunProbes(const Workload& w, std::uint64_t seed,
                      fl::FlAlgorithm& server) {
  const int k = w.config.clients_per_round;
  const fl::FlatParams reference = server.GlobalParams();
  const comm::ShapeTable& shapes = server.shape_table();

  // K live models: FedCross's middleware models, otherwise the global model
  // under K fixed perturbations (what K fresh uploads would look like).
  auto* fedcross = dynamic_cast<core::FedCross*>(&server);
  std::vector<fl::FlatParams> models;
  if (fedcross != nullptr) {
    models = fedcross->middleware();
  } else {
    for (int i = 0; i < k; ++i) {
      util::Rng rng(static_cast<std::uint64_t>(i) + 1);
      fl::FlatParams model = reference;
      for (float& v : model) v += static_cast<float>(rng.Normal(0.0, 1e-2));
      models.push_back(std::move(model));
    }
  }

  // comm: the dispatch framing and the workload's uplink codec.
  std::vector<std::uint8_t> frame;
  fl::FlatParams decoded;
  std::vector<float> residual;
  for (int i = 0; i < kCallReps; ++i) {
    {
      FC_TRACE_SPAN("bench.comm.encode_down");
      comm::EncodeDispatch(reference, shapes, frame);
    }
    util::Status status;
    {
      FC_TRACE_SPAN("bench.comm.decode_down");
      status = comm::DecodeDispatch(frame, shapes, decoded);
    }
    if (!status.ok() || decoded != reference) {
      return "dispatch frame did not round-trip: " + status.ToString();
    }
    residual.assign(reference.size(), 0.0f);
    util::Rng rng(static_cast<std::uint64_t>(i) + 1);
    {
      FC_TRACE_SPAN("bench.comm.encode_up");
      comm::EncodeUpload(w.config.codec, models[i % k], reference, shapes,
                         residual, rng, frame);
    }
    {
      FC_TRACE_SPAN("bench.comm.decode_up");
      status = comm::DecodeUpload(frame, reference, shapes, decoded);
    }
    if (!status.ok() || decoded.size() != reference.size()) {
      return "upload frame did not decode: " + status.ToString();
    }
  }

  // core: one round of collaborator selection, the same K*(K-1) similarity
  // scans made directly, and one round of cross-aggregation.
  std::unique_ptr<core::FedCross> owned;
  core::FedCross* selector = fedcross;
  if (selector == nullptr) {
    owned = MakeFedCrossProbe(w, seed);
    selector = owned.get();
  }
  double sink = 0.0;
  for (int rep = 0; rep < kRoundReps; ++rep) {
    {
      FC_TRACE_SPAN("bench.core.select_round");
      for (int i = 0; i < k; ++i) {
        sink += selector->SelectCollaborator(i, rep, models);
      }
    }
    {
      FC_TRACE_SPAN("bench.core.similarity_round");
      for (int i = 0; i < k; ++i) {
        for (int j = 0; j < k; ++j) {
          if (j == i) continue;
          sink += core::ModelSimilarity(models[i], models[j],
                                        core::SimilarityMeasure::kCosine);
        }
      }
    }
    {
      FC_TRACE_SPAN("bench.core.cross_agg_round");
      for (int i = 0; i < k; ++i) {
        fl::FlatParams fused = core::FedCross::CrossAggregate(
            models[i], models[(i + 1) % k], w.fedcross.alpha);
        sink += fused[0];
      }
    }
  }

  // privacy: the DP sanitiser (the workload's settings, or clip 1 / noise 1
  // where the workload runs without DP) and one masked aggregation over a
  // cohort whose last member dropped, so recovery runs too.
  privacy::DpOptions dp = w.config.dp;
  if (!dp.Enabled()) {
    dp.clip_norm = 1.0f;
    dp.noise_multiplier = 1.0f;
  }
  fl::FlatParams upload;
  for (int i = 0; i < kCallReps; ++i) {
    upload = models[i % k];
    util::Rng rng(static_cast<std::uint64_t>(i) + 1);
    FC_TRACE_SPAN("bench.privacy.sanitize");
    privacy::SanitizeUpdateInPlace(reference, upload, dp, rng);
  }
  std::vector<const fl::FlatParams*> cohort;
  for (int m = 0; m < MaskedCohort(w); ++m) cohort.push_back(&models[m]);
  cohort.back() = nullptr;
  privacy::MaskOptions mask = w.config.secure_agg;
  mask.enabled = true;
  for (int rep = 0; rep < kRoundReps; ++rep) {
    privacy::MaskedSumReport report;
    {
      FC_TRACE_SPAN("bench.privacy.masked_sum");
      report = privacy::SimulateMaskedAggregation(seed, rep, 0, cohort, mask);
    }
    if (!report.exact || report.recovered_pairs == 0) {
      return "masked aggregation did not unmask exactly";
    }
  }

  // fl.evaluator: the global model on the test set, through a model pool of
  // its own (the server's is internal) after one warm-up call.
  fl::ModelPool eval_pool(server.factory());
  const int eval_batch = w.config.eval_batch_size;
  fl::EvaluateParams(eval_pool, reference, server.test_set(), eval_batch);
  for (int rep = 0; rep < kEvalReps; ++rep) {
    fl::EvalResult eval;
    {
      FC_TRACE_SPAN("bench.fl.evaluate");
      eval = fl::EvaluateParams(eval_pool, reference, server.test_set(),
                                eval_batch);
    }
    if (!std::isfinite(eval.loss)) return "probe evaluation loss not finite";
  }

  // tensor: the single-thread reference GEMM train.peak_share is against.
  const int n = kGemmN;
  std::vector<float> a(static_cast<std::size_t>(n) * n);
  std::vector<float> b(a.size());
  std::vector<float> c(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(i % 13) * 0.01f;
    b[i] = static_cast<float>(i % 7) * 0.02f;
  }
  fedcross::ops::Gemm(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n,
                      0.0f, c.data(), n);
  for (int rep = 0; rep < kGemmReps; ++rep) {
    FC_TRACE_SPAN("bench.tensor.gemm");
    fedcross::ops::Gemm(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n,
                        0.0f, c.data(), n);
  }
  sink += c[0];

  if (!std::isfinite(sink)) return "probe results are not finite";
  return "";
}

}  // namespace fcbench
