// Observability subsystem tests: sharded metrics correctness under
// concurrent hammering, snapshot determinism across thread counts, trace
// JSON well-formedness (parsed back by a small validating parser), round
// events, and — the contract everything else rests on — that enabling every
// sink changes nothing about training, while disabling them mutates nothing
// in the registry.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/fedcross.h"
#include "fl/algorithm.h"
#include "fl/parallel.h"
#include "nn/linear.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace fedcross {
namespace {

// Minimal validating JSON parser (objects, arrays, strings, numbers, bools,
// null): Parse() returns true iff the whole input is one well-formed value.
// Exists so the trace/metrics files are checked by an actual round-trip, not
// a substring sniff.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : text_(text) {}

  bool Parse() {
    pos_ = 0;
    if (!ParseValue()) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool ParseString() {
    if (!Consume('"')) return false;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
      }
      ++pos_;
    }
    return Consume('"');
  }

  bool ParseNumber() {
    SkipSpace();
    std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool digits = false;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      if (std::isdigit(static_cast<unsigned char>(text_[pos_]))) digits = true;
      ++pos_;
    }
    return digits && pos_ > start;
  }

  bool ParseLiteral(const char* word) {
    SkipSpace();
    std::size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  bool ParseValue() {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    if (c == 't') return ParseLiteral("true");
    if (c == 'f') return ParseLiteral("false");
    if (c == 'n') return ParseLiteral("null");
    return ParseNumber();
  }

  bool ParseObject() {
    if (!Consume('{')) return false;
    SkipSpace();
    if (Consume('}')) return true;
    for (;;) {
      if (!ParseString() || !Consume(':') || !ParseValue()) return false;
      SkipSpace();
      if (Consume('}')) return true;
      if (!Consume(',')) return false;
    }
  }

  bool ParseArray() {
    if (!Consume('[')) return false;
    SkipSpace();
    if (Consume(']')) return true;
    for (;;) {
      if (!ParseValue()) return false;
      SkipSpace();
      if (Consume(']')) return true;
      if (!Consume(',')) return false;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

int CountOccurrences(const std::string& text, const std::string& needle) {
  int count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// Restores a pristine observability state no matter how the test exits.
struct ObsGuard {
  ~ObsGuard() {
    obs::SetMetricsEnabled(false);
    obs::SetTracingEnabled(false);
    obs::SetEventsPath("");
    obs::MetricsRegistry::Global().Reset();
    obs::TraceRecorder::Global().Clear();
    fl::SetFlThreads(1);
  }
};

models::ModelFactory LinearFactory(int dim) {
  return [dim]() {
    util::Rng rng(1);
    nn::Sequential model;
    model.Add(std::make_unique<nn::Linear>(dim, 2, rng));
    return model;
  };
}

data::FederatedDataset MakeToyFederated(int num_clients, int per_client,
                                        int dim, std::uint64_t seed) {
  util::Rng rng(seed);
  data::FederatedDataset federated;
  federated.num_classes = 2;
  auto gen_example = [&](int k, std::vector<float>& features) {
    float mean = k == 0 ? -1.0f : 1.0f;
    for (int d = 0; d < dim; ++d) {
      features.push_back(mean + static_cast<float>(rng.Normal(0.0, 0.6)));
    }
  };
  for (int c = 0; c < num_clients; ++c) {
    std::vector<float> features;
    std::vector<int> labels;
    for (int i = 0; i < per_client; ++i) {
      int k = rng.Uniform() < 0.9 ? c % 2 : 1 - c % 2;
      gen_example(k, features);
      labels.push_back(k);
    }
    federated.client_train.push_back(std::make_shared<data::InMemoryDataset>(
        Tensor::Shape{dim}, std::move(features), std::move(labels), 2));
  }
  std::vector<float> features;
  std::vector<int> labels;
  for (int i = 0; i < 40; ++i) {
    gen_example(i % 2, features);
    labels.push_back(i % 2);
  }
  federated.test = std::make_shared<data::InMemoryDataset>(
      Tensor::Shape{dim}, std::move(features), std::move(labels), 2);
  return federated;
}

fl::AlgorithmConfig ToyConfig() {
  fl::AlgorithmConfig config;
  config.clients_per_round = 4;
  config.train.local_epochs = 2;
  config.train.batch_size = 10;
  config.train.lr = 0.05f;
  config.seed = 17;
  config.faults.profile.dropout_prob = 0.2;  // exercise the fault counters too
  return config;
}

// Runs a fresh 3-round FedCross federation and returns its history.
const int kRounds = 3;

std::unique_ptr<core::FedCross> MakeFedCross() {
  core::FedCrossOptions options;
  options.alpha = 0.9;
  return std::make_unique<core::FedCross>(
      ToyConfig(), MakeToyFederated(8, 30, 8, 3), LinearFactory(8), options);
}

// ---------------------------------------------------------------------------
// Metrics registry.

TEST(MetricsTest, CounterExactUnderConcurrentHammering) {
  ObsGuard guard;
  obs::MetricsRegistry::Global().Reset();
  obs::SetMetricsEnabled(true);
  obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("test.hammer");

  constexpr int kTasks = 64;
  constexpr int kAddsPerTask = 1000;
  util::ThreadPool pool(8);
  pool.ParallelFor(kTasks, [&](int) {
    for (int i = 0; i < kAddsPerTask; ++i) counter.Add(1);
  });
  EXPECT_EQ(counter.Value(),
            static_cast<std::int64_t>(kTasks) * kAddsPerTask);
}

TEST(MetricsTest, HistogramConcurrentObservationsLandInRightBuckets) {
  ObsGuard guard;
  obs::MetricsRegistry::Global().Reset();
  obs::SetMetricsEnabled(true);
  obs::Histogram& histogram = obs::MetricsRegistry::Global().GetHistogram(
      "test.hist", {1.0, 10.0, 100.0});

  // 64 tasks x (one observation per bucket incl. overflow).
  util::ThreadPool pool(8);
  pool.ParallelFor(64, [&](int) {
    histogram.Observe(0.5);    // <= 1
    histogram.Observe(5.0);    // <= 10
    histogram.Observe(50.0);   // <= 100
    histogram.Observe(500.0);  // overflow
  });

  EXPECT_EQ(histogram.TotalCount(), 64 * 4);
  std::vector<std::int64_t> buckets = histogram.BucketCounts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 64);
  EXPECT_EQ(buckets[1], 64);
  EXPECT_EQ(buckets[2], 64);
  EXPECT_EQ(buckets[3], 64);
  EXPECT_NEAR(histogram.Sum(), 64 * (0.5 + 5.0 + 50.0 + 500.0), 1e-6);
}

TEST(MetricsTest, GaugeKeepsLastWrite) {
  ObsGuard guard;
  obs::MetricsRegistry::Global().Reset();
  obs::SetMetricsEnabled(true);
  obs::Gauge& gauge = obs::MetricsRegistry::Global().GetGauge("test.gauge");
  gauge.Set(1.5);
  gauge.Set(-3.25);
  EXPECT_EQ(gauge.Value(), -3.25);
}

TEST(MetricsTest, RegistrationIsIdempotentAndSnapshotSorted) {
  ObsGuard guard;
  obs::MetricsRegistry::Global().Reset();
  obs::SetMetricsEnabled(true);
  obs::Counter& a = obs::MetricsRegistry::Global().GetCounter("test.zz");
  obs::Counter& b = obs::MetricsRegistry::Global().GetCounter("test.aa");
  obs::Counter& a2 = obs::MetricsRegistry::Global().GetCounter("test.zz");
  EXPECT_EQ(&a, &a2);  // stable address
  a.Add(2);
  b.Add(1);

  std::vector<obs::MetricSnapshot> snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  for (std::size_t i = 1; i < snapshot.size(); ++i) {
    EXPECT_LT(snapshot[i - 1].name, snapshot[i].name);
  }
  // Handles survive Reset; values do not.
  obs::MetricsRegistry::Global().Reset();
  EXPECT_EQ(a.Value(), 0);
  a.Add(5);
  EXPECT_EQ(a.Value(), 5);
}

TEST(MetricsTest, DisabledMutatorsAreNoOps) {
  ObsGuard guard;
  obs::MetricsRegistry::Global().Reset();
  obs::SetMetricsEnabled(false);

  obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("test.disabled.counter");
  obs::Gauge& gauge =
      obs::MetricsRegistry::Global().GetGauge("test.disabled.gauge");
  obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram("test.disabled.hist");

  counter.Add(7);
  gauge.Set(1.0);
  histogram.Observe(3.0);

  EXPECT_EQ(counter.Value(), 0);
  EXPECT_EQ(gauge.Value(), 0.0);
  EXPECT_EQ(histogram.TotalCount(), 0);
  EXPECT_EQ(histogram.Sum(), 0.0);
}

TEST(MetricsTest, WriteJsonRoundTrips) {
  ObsGuard guard;
  obs::MetricsRegistry::Global().Reset();
  obs::SetMetricsEnabled(true);
  obs::MetricsRegistry::Global().GetCounter("test.json.counter").Add(3);
  obs::MetricsRegistry::Global().GetGauge("test.json.gauge").Set(2.5);
  obs::MetricsRegistry::Global()
      .GetHistogram("test.json.hist", {1.0, 2.0})
      .Observe(1.5);

  std::string path = ::testing::TempDir() + "obs_metrics_test.json";
  ASSERT_TRUE(obs::MetricsRegistry::Global().WriteJson(path));
  std::string text = ReadFile(path);
  JsonValidator validator(text);
  EXPECT_TRUE(validator.Parse()) << text;
  EXPECT_NE(text.find("\"test.json.counter\""), std::string::npos);
  EXPECT_NE(text.find("\"test.json.gauge\""), std::string::npos);
  EXPECT_NE(text.find("\"test.json.hist\""), std::string::npos);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Tracing.

TEST(TraceTest, SpansRecordAndExportAsValidChromeJson) {
  ObsGuard guard;
  obs::TraceRecorder::Global().Clear();
  obs::SetTracingEnabled(true);

  {
    FC_TRACE_SPAN("test.outer");
    FC_TRACE_SPAN_ARG("test.with_arg", 42);
  }
  // Spans recorded from pool workers land in their own rings.
  util::ThreadPool pool(4);
  pool.ParallelFor(16, [&](int i) { FC_TRACE_SPAN_ARG("test.worker", i); });

  EXPECT_GE(obs::TraceRecorder::Global().EventCount(), 18u);

  std::string path = ::testing::TempDir() + "obs_trace_test.json";
  ASSERT_TRUE(obs::TraceRecorder::Global().WriteJson(path));
  std::string text = ReadFile(path);
  JsonValidator validator(text);
  EXPECT_TRUE(validator.Parse()) << text.substr(0, 500);
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"test.with_arg\""), std::string::npos);
  EXPECT_EQ(CountOccurrences(text, "\"test.worker\""), 16);
  std::remove(path.c_str());
}

TEST(TraceTest, DisabledSpansRecordNothing) {
  ObsGuard guard;
  obs::TraceRecorder::Global().Clear();
  obs::SetTracingEnabled(false);
  {
    FC_TRACE_SPAN("test.invisible");
  }
  EXPECT_EQ(obs::TraceRecorder::Global().EventCount(), 0u);
}

TEST(TraceTest, RingKeepsNewestOnOverflow) {
  ObsGuard guard;
  obs::TraceRecorder::Global().Clear();
  obs::SetTracingEnabled(true);
  for (std::size_t i = 0; i < obs::TraceRecorder::kRingCapacity + 100; ++i) {
    FC_TRACE_SPAN("test.flood");
  }
  // Capped at capacity for this thread's ring, not growing unbounded.
  EXPECT_EQ(obs::TraceRecorder::Global().EventCount() %
                obs::TraceRecorder::kRingCapacity,
            0u);
}

// ---------------------------------------------------------------------------
// Round events + end-to-end contracts.

bool HistoriesBitIdentical(const fl::MetricsHistory& a,
                           const fl::MetricsHistory& b) {
  const std::vector<fl::RoundRecord>& ra = a.records();
  const std::vector<fl::RoundRecord>& rb = b.records();
  if (ra.size() != rb.size()) return false;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    if (ra[i].round != rb[i].round || ra[i].test_loss != rb[i].test_loss ||
        ra[i].test_accuracy != rb[i].test_accuracy ||
        ra[i].bytes_up != rb[i].bytes_up ||
        ra[i].bytes_down != rb[i].bytes_down ||
        ra[i].mean_client_loss != rb[i].mean_client_loss) {
      return false;
    }
  }
  return true;
}

TEST(ObsEndToEndTest, EnablingEverySinkDoesNotChangeTraining) {
  ObsGuard guard;

  // Reference run: everything off.
  obs::SetMetricsEnabled(false);
  obs::SetTracingEnabled(false);
  obs::SetEventsPath("");
  auto baseline = MakeFedCross();
  fl::MetricsHistory history_off = baseline->Run(kRounds, 1);
  fl::FlatParams params_off = baseline->GlobalParams();

  // Observed run: all three sinks armed.
  std::string events_path = ::testing::TempDir() + "obs_events_test.jsonl";
  obs::MetricsRegistry::Global().Reset();
  obs::TraceRecorder::Global().Clear();
  obs::SetMetricsEnabled(true);
  obs::SetTracingEnabled(true);
  ASSERT_TRUE(obs::SetEventsPath(events_path));
  auto observed = MakeFedCross();
  fl::MetricsHistory history_on = observed->Run(kRounds, 1);
  fl::FlatParams params_on = observed->GlobalParams();
  obs::SetEventsPath("");  // flush + close before reading back

  EXPECT_TRUE(HistoriesBitIdentical(history_off, history_on));
  ASSERT_EQ(params_off.size(), params_on.size());
  for (std::size_t i = 0; i < params_off.size(); ++i) {
    ASSERT_EQ(params_off[i], params_on[i]) << "param " << i;
  }

  // One well-formed event per round, carrying the phase timings and stats.
  std::ifstream in(events_path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    JsonValidator validator(line);
    EXPECT_TRUE(validator.Parse()) << line;
    EXPECT_NE(line.find("\"algo\":\"FedCross\""), std::string::npos);
    EXPECT_NE(line.find("\"round\":"), std::string::npos);
    EXPECT_NE(line.find("\"train_ms\":"), std::string::npos);
    EXPECT_NE(line.find("\"aggregate_ms\":"), std::string::npos);
    EXPECT_NE(line.find("\"eval_ms\":"), std::string::npos);
    EXPECT_NE(line.find("\"bytes_up\":"), std::string::npos);
    EXPECT_NE(line.find("\"dropouts\":"), std::string::npos);
  }
  EXPECT_EQ(lines, kRounds);

  // The trace holds the per-round phase spans; the export parses back.
  std::string trace_path = ::testing::TempDir() + "obs_trace_e2e.json";
  ASSERT_TRUE(obs::TraceRecorder::Global().WriteJson(trace_path));
  std::string trace_text = ReadFile(trace_path);
  JsonValidator trace_validator(trace_text);
  EXPECT_TRUE(trace_validator.Parse());
  EXPECT_EQ(CountOccurrences(trace_text, "\"fl.round\""), kRounds);
  EXPECT_GE(CountOccurrences(trace_text, "\"phase.train\""), kRounds);
  EXPECT_GE(CountOccurrences(trace_text, "\"phase.eval\""), kRounds);

  std::remove(events_path.c_str());
  std::remove(trace_path.c_str());
}

// The deterministic metric subset (round/job/upload counts, comm bytes,
// fault tallies) must be invariant under the thread count. Scheduling
// metrics (pool checkouts, queue depths, latencies) legitimately vary.
bool IsThreadCountInvariant(const std::string& name) {
  return name.rfind("fl.rounds", 0) == 0 ||
         name.rfind("fl.clients.", 0) == 0 ||
         name.rfind("fl.uploads.", 0) == 0 ||
         name.rfind("fl.comm.", 0) == 0 || name.rfind("fl.faults.", 0) == 0 ||
         name.rfind("fl.agg.", 0) == 0;
}

TEST(ObsEndToEndTest, SnapshotDeterministicAcrossThreadCounts) {
  ObsGuard guard;
  obs::SetMetricsEnabled(true);

  auto run_with_threads = [&](int threads) {
    obs::MetricsRegistry::Global().Reset();
    fl::SetFlThreads(threads);
    auto server = MakeFedCross();
    server->Run(kRounds, 1);
    std::vector<obs::MetricSnapshot> all =
        obs::MetricsRegistry::Global().Snapshot();
    std::vector<obs::MetricSnapshot> kept;
    for (obs::MetricSnapshot& snap : all) {
      if (IsThreadCountInvariant(snap.name)) kept.push_back(std::move(snap));
    }
    return kept;
  };

  std::vector<obs::MetricSnapshot> seq = run_with_threads(1);
  std::vector<obs::MetricSnapshot> par = run_with_threads(4);

  ASSERT_FALSE(seq.empty());
  ASSERT_EQ(seq.size(), par.size());
  bool saw_nonzero = false;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].name, par[i].name);
    EXPECT_EQ(seq[i].count, par[i].count) << seq[i].name;
    EXPECT_EQ(seq[i].value, par[i].value) << seq[i].name;
    if (seq[i].count != 0 || seq[i].value != 0.0) saw_nonzero = true;
  }
  EXPECT_TRUE(saw_nonzero);  // the invariant subset actually measured things
}

TEST(ObsEndToEndTest, ThreadPoolEmitsSchedulingMetrics) {
  ObsGuard guard;
  obs::MetricsRegistry::Global().Reset();
  obs::SetMetricsEnabled(true);

  util::ThreadPool pool(2);
  for (int i = 0; i < 10; ++i) {
    pool.Schedule([] {});
  }
  pool.Wait();

  EXPECT_EQ(
      obs::MetricsRegistry::Global().GetCounter("util.pool.tasks").Value(),
      10);
  EXPECT_EQ(obs::MetricsRegistry::Global()
                .GetHistogram("util.pool.task_ms")
                .TotalCount(),
            10);
}

TEST(ObsEndToEndTest, RoundEventsDisabledWritesNothing) {
  ObsGuard guard;
  obs::SetEventsPath("");
  EXPECT_FALSE(obs::EventsEnabled());
  auto server = MakeFedCross();
  server->Run(1, 1);
  EXPECT_EQ(obs::EventsEmitted(), 0);
}

}  // namespace
}  // namespace fedcross
