// Scenario: a production-flavoured deployment — devices drop out, straggle
// past the round deadline, or upload corrupted (even Byzantine) models.
// This example sweeps fault profiles across FedAvg and FedCross, with and
// without the server-side defences (upload screening, robust aggregation,
// over-provisioned selection), prints the comparison, and writes it to
// table_robustness.csv. It finishes with a full training-state checkpoint
// demo: the run is "killed" mid-flight and resumed bit-identically.
//
// Observability is on by default here: every round of every cell streams a
// structured record to events.jsonl and the whole sweep is traced into
// trace.json (load it in Perfetto / chrome://tracing). Disable with
// --events_out none / --trace_out none.
//
//   ./robust_federation [--rounds 40] [--clients 20] [--k 4]
//                       [--exec layers|plan]
//                       [--dp_clip 0] [--dp_noise 0] [--dp_delta 1e-5]
//                       [--secure_agg false]
//                       [--events_out events.jsonl] [--trace_out trace.json]
//                       [--metrics_out m.json] [--log_level info]
//
// The privacy flags apply to every cell: clipping/noise run on-device
// before fault corruption, and the masking overlay must unmask exactly even
// in cells where dropouts/rejections leave dangling pair masks — the
// adversarial conditions double as a secure-aggregation recovery stress.
#include <cmath>
#include <cstdio>
#include <memory>

#include "comm/wire.h"
#include "core/fedcross.h"
#include "data/partition.h"
#include "data/synthetic_image.h"
#include "fl/fedavg.h"
#include "models/model_zoo.h"
#include "privacy/dp.h"
#include "privacy/masking.h"
#include "util/csv_writer.h"
#include "util/flags.h"
#include "util/obs_init.h"
#include "util/table_printer.h"

namespace {

using namespace fedcross;

data::FederatedDataset MakeData(int num_clients, std::uint64_t seed) {
  data::SyntheticImageOptions image_options;
  image_options.num_classes = 10;
  image_options.height = image_options.width = 8;
  image_options.train_per_class = 60;
  image_options.test_per_class = 20;
  image_options.seed = seed;
  data::ImageCorpus corpus = data::MakeSyntheticImageCorpus(image_options);
  util::Rng rng(seed + 1);
  data::FederatedDataset federated;
  federated.num_classes = 10;
  federated.client_train = data::MakeClientShards(
      corpus.train, data::DirichletPartition(*corpus.train, num_clients, 0.5,
                                             rng));
  federated.test = corpus.test;
  return federated;
}

// One cell of the sweep: a fault environment plus the server's defences.
struct Condition {
  const char* name;
  fl::FaultModel faults;
  fl::ScreeningOptions screening;
  fl::AggregatorOptions aggregator;
};

std::vector<Condition> MakeConditions() {
  std::vector<Condition> conditions;

  conditions.push_back({"clean", {}, {}, {}});

  {
    Condition c{"30% dropout", {}, {}, {}};
    c.faults.profile.dropout_prob = 0.3;
    conditions.push_back(c);
  }
  {
    Condition c{"dropout + over-provision", {}, {}, {}};
    c.faults.profile.dropout_prob = 0.3;
    c.faults.over_provision = 2;
    conditions.push_back(c);
  }
  {
    Condition c{"stragglers, deadline 4x", {}, {}, {}};
    c.faults.profile.straggler_prob = 0.4;
    c.faults.profile.slowdown_min = 2.0;
    c.faults.profile.slowdown_max = 8.0;
    c.faults.round_deadline = 4.0;
    conditions.push_back(c);
  }
  {
    Condition c{"NaN uploads + screening", {}, {}, {}};
    c.faults.profile.corrupt_prob = 0.2;
    c.faults.profile.corruption = fl::CorruptionKind::kNanInject;
    c.screening.check_finite = true;
    conditions.push_back(c);
  }
  {
    Condition c{"Byzantine + trimmed mean", {}, {}, {}};
    c.faults.profile.corrupt_prob = 0.2;
    c.faults.profile.corruption = fl::CorruptionKind::kSignFlip;
    c.faults.profile.corruption_scale = 10.0f;
    c.aggregator.kind = fl::AggregatorKind::kTrimmedMean;
    c.aggregator.trim_ratio = 0.25;
    conditions.push_back(c);
  }
  {
    Condition c{"exploding + median", {}, {}, {}};
    c.faults.profile.corrupt_prob = 0.2;
    c.faults.profile.corruption = fl::CorruptionKind::kExplodingNorm;
    c.faults.profile.corruption_scale = 100.0f;
    c.aggregator.kind = fl::AggregatorKind::kCoordinateMedian;
    conditions.push_back(c);
  }
  return conditions;
}

// Wire codec applied to every cell of the sweep (set once from --codec):
// fault corruption and screening interact with the codec path, so the whole
// table can be re-measured under a compressed uplink.
fedcross::comm::CodecOptions g_codec;

// Local-training executor for every cell (set once from --exec); the fault
// and screening paths are exercised identically under both runtimes.
fl::ExecMode g_exec = fl::ExecMode::kLayers;

// Privacy options applied to every cell (set once from --dp_* /
// --secure_agg): DP sanitisation and the masked-aggregation overlay run
// under each cell's fault environment.
privacy::DpOptions g_dp;
privacy::MaskOptions g_secure_agg;

fl::AlgorithmConfig MakeConfig(int k, const Condition& condition) {
  fl::AlgorithmConfig config;
  config.clients_per_round = k;
  config.train.local_epochs = 5;
  config.train.batch_size = 20;
  config.train.lr = 0.03f;
  config.train.momentum = 0.5f;
  config.train.exec = g_exec;
  config.faults = condition.faults;
  config.screening = condition.screening;
  config.aggregator = condition.aggregator;
  config.codec = g_codec;
  config.dp = g_dp;
  config.secure_agg = g_secure_agg;
  return config;
}

struct CellResult {
  float best_acc = 0.0f;
  float final_acc = 0.0f;
  fl::FaultStats stats;
};

CellResult RunCell(const char* algorithm, const Condition& condition,
                   int rounds, int num_clients, int k,
                   const models::ModelFactory& factory) {
  fl::AlgorithmConfig config = MakeConfig(k, condition);
  std::unique_ptr<fl::FlAlgorithm> algo;
  if (std::string(algorithm) == "FedAvg") {
    algo = std::make_unique<fl::FedAvg>(config, MakeData(num_clients, 5),
                                        factory);
  } else {
    core::FedCrossOptions options;
    options.alpha = 0.9;
    algo = std::make_unique<core::FedCross>(config, MakeData(num_clients, 5),
                                            factory, options);
  }
  const fl::MetricsHistory& history = algo->Run(rounds, 5);
  CellResult result;
  result.best_acc = history.BestAccuracy();
  result.final_acc = history.FinalAccuracy();
  result.stats = algo->fault_stats();
  return result;
}

// Kills a FedCross run after rounds/2 rounds (checkpoint on disk, instance
// destroyed) and resumes it in a fresh instance; returns true if the
// resumed model matches an uninterrupted run bit-for-bit.
bool DemoCheckpointResume(int rounds, int num_clients, int k,
                          const models::ModelFactory& factory) {
  const char* path = "fedcross_training_state.ckpt";
  Condition clean{"clean", {}, {}, {}};
  fl::AlgorithmConfig config = MakeConfig(k, clean);
  core::FedCrossOptions options;
  options.alpha = 0.9;

  core::FedCross full(config, MakeData(num_clients, 5), factory, options);
  full.Run(rounds, 1);

  {
    core::FedCross first(config, MakeData(num_clients, 5), factory, options);
    first.EnableAutoCheckpoint(path, 1);
    first.Run(rounds / 2, 1);
    // The instance dies here — only the checkpoint file survives.
  }

  core::FedCross resumed(config, MakeData(num_clients, 5), factory, options);
  util::Status loaded = resumed.LoadCheckpoint(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "resume failed: %s\n", loaded.ToString().c_str());
    return false;
  }
  std::printf("resumed from round %d\n", resumed.completed_rounds());
  resumed.Run(rounds, 1);

  fl::FlatParams a = full.GlobalParams();
  fl::FlatParams b = resumed.GlobalParams();
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  std::remove(path);
  return true;
}

int Run(int argc, char** argv) {
  util::FlagParser flags(argc, argv);
  fl::SetFlThreads(flags.GetInt("fl_threads", 0));
  int rounds = flags.GetInt("rounds", 40);
  int num_clients = flags.GetInt("clients", 20);
  int k = flags.GetInt("k", 4);
  std::string codec_name = flags.GetString("codec", "identity");
  double topk = flags.GetDouble("topk", 0.1);
  std::string exec_name = flags.GetString("exec", "layers");
  double dp_clip = flags.GetDouble("dp_clip", 0.0);
  double dp_noise = flags.GetDouble("dp_noise", 0.0);
  double dp_delta = flags.GetDouble("dp_delta", 1e-5);
  bool secure_agg = flags.GetBool("secure_agg", false);
  util::ObsOptions obs_defaults;
  obs_defaults.events_out = "events.jsonl";
  obs_defaults.trace_out = "trace.json";
  util::Status obs_status = util::InitObservability(flags, obs_defaults);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    return 1;
  }
  if (!obs_status.ok()) {
    std::fprintf(stderr, "%s\n", obs_status.ToString().c_str());
    return 1;
  }
  util::StatusOr<comm::Scheme> scheme = comm::ParseScheme(codec_name);
  if (!scheme.ok()) {
    std::fprintf(stderr, "%s\n", scheme.status().ToString().c_str());
    return 1;
  }
  g_codec.scheme = scheme.value();
  g_codec.topk_fraction = topk;
  if (util::Status codec = comm::ValidateCodecOptions(g_codec); !codec.ok()) {
    std::fprintf(stderr, "--topk: %s\n", codec.ToString().c_str());
    return 1;
  }
  if (!fl::ParseExecMode(exec_name, &g_exec)) {
    std::fprintf(stderr, "unknown --exec '%s' (want layers|plan)\n",
                 exec_name.c_str());
    return 1;
  }
  g_dp.clip_norm = static_cast<float>(dp_clip);
  g_dp.noise_multiplier = static_cast<float>(dp_noise);
  g_dp.delta = dp_delta;
  g_secure_agg.enabled = secure_agg;

  models::CnnConfig cnn;
  cnn.height = cnn.width = 8;
  cnn.num_classes = 10;
  models::ModelFactory factory = models::MakeCnn(cnn);

  util::TablePrinter table(
      {"Condition", "FedAvg best (%)", "FedCross best (%)", "dropped",
       "stragglers", "corrupted", "rejected"});
  util::CsvWriter csv("table_robustness.csv");
  csv.WriteRow({"condition", "algorithm", "best_accuracy", "final_accuracy",
                "dropouts", "stragglers", "corrupted", "rejected"});

  for (const Condition& condition : MakeConditions()) {
    CellResult cells[2];
    const char* algorithms[] = {"FedAvg", "FedCross"};
    for (int a = 0; a < 2; ++a) {
      cells[a] = RunCell(algorithms[a], condition, rounds, num_clients, k,
                         factory);
      csv.WriteRow({condition.name, algorithms[a],
                    util::CsvWriter::Field(cells[a].best_acc),
                    util::CsvWriter::Field(cells[a].final_acc),
                    util::CsvWriter::Field(
                        static_cast<int>(cells[a].stats.dropouts)),
                    util::CsvWriter::Field(
                        static_cast<int>(cells[a].stats.stragglers)),
                    util::CsvWriter::Field(
                        static_cast<int>(cells[a].stats.corrupted)),
                    util::CsvWriter::Field(
                        static_cast<int>(cells[a].stats.rejected))});
    }
    // The fault columns report the FedCross run (both runs draw from the
    // same fault model; counts differ only by sampling).
    const fl::FaultStats& stats = cells[1].stats;
    table.AddRow({condition.name,
                  util::TablePrinter::Fixed(cells[0].best_acc * 100),
                  util::TablePrinter::Fixed(cells[1].best_acc * 100),
                  std::to_string(stats.dropouts),
                  std::to_string(stats.stragglers),
                  std::to_string(stats.corrupted),
                  std::to_string(stats.rejected)});
    std::printf("finished: %s\n", condition.name);
  }

  std::printf("\n=== Robustness study: FedAvg vs FedCross under faults ===\n");
  table.Print(stdout);
  std::printf("\nwrote table_robustness.csv (%s)\n",
              csv.ok() ? "ok" : "WRITE FAILED");

  std::printf("\n=== Checkpoint/resume: kill at round %d, resume to %d ===\n",
              rounds / 2, rounds);
  bool identical =
      DemoCheckpointResume(rounds, num_clients, k, factory);
  std::printf("resumed run bit-identical to uninterrupted run: %s\n",
              identical ? "yes" : "NO (bug!)");

  util::Status flushed = util::FlushObservability();
  if (!flushed.ok()) {
    std::fprintf(stderr, "%s\n", flushed.ToString().c_str());
  }
  return identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
