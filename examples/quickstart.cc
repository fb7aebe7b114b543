// Quickstart: train a CNN with FedCross (or FedAvg, for comparison) on a
// synthetic CIFAR-10-like federated dataset and watch the global model's
// accuracy per round.
//
//   ./quickstart [--algo fedcross|fedavg] [--rounds 40] [--clients 20]
//                [--k 4] [--beta 0.5] [--alpha 0.9]
//                [--strategy lowest-similarity]
//                [--codec identity|delta|int8|topk|int8_topk] [--topk 0.1]
//                [--exec layers|plan]  (plan = batched execution-plan runtime)
//                [--population resident|virtual]  (virtual = clients are
//                 materialised on demand; --clients then scales to millions
//                 with flat memory)
//                [--max_resident 0]  (cold client-state entries kept in RAM;
//                 0 = unbounded, excess spills to a mapped file)
//                [--round_mode sync|async]  (async = buffered staleness-
//                 weighted aggregation on the virtual clock)
//                [--buffer 0] [--staleness constant|polynomial]
//                [--staleness_exponent 0.5] [--timeout 0] [--max_retries 1]
//                [--speed_min 100] [--speed_max 100]  (SGD steps / virtual s)
//                [--bw_min 1e9] [--bw_max 1e9]  (wire bytes / virtual s)
//                [--jitter 0]  (per-dispatch compute jitter, 0..j uniform)
//                [--dropout_prob 0] [--straggler_prob 0]
//                [--slowdown_min 2] [--slowdown_max 8] [--round_deadline 0]
//                [--dp_clip 0]  (DP-SGD: clip each update's L2 norm; 0 = off)
//                [--dp_noise 0]  (Gaussian noise multiplier on the clip)
//                [--dp_delta 1e-5]  (delta the RDP accountant reports at)
//                [--secure_agg false]  (pairwise-masked aggregation overlay)
//                [--fl_threads 0]   (pool workers: 0 = one per core, and
//                                    the caller joins each fan-out as one
//                                    more thread; 1 = sequential)
//                [--trace_out t.json] [--metrics_out m.json]
//                [--events_out e.jsonl] [--log_level info]
//
// This is the minimal end-to-end use of the public API:
//   1. build a dataset and partition it across clients,
//   2. pick a model factory,
//   3. construct the server and call Run() — which also streams one
//      structured round event per round when --events_out is set.
#include <cstdio>
#include <memory>

#include "comm/wire.h"
#include "core/fedcross.h"
#include "data/partition.h"
#include "data/synthetic_image.h"
#include "fl/clock.h"
#include "fl/faults.h"
#include "fl/fedavg.h"
#include "models/model_zoo.h"
#include "util/flags.h"
#include "util/mem_stats.h"
#include "util/obs_init.h"

namespace {

int Run(int argc, char** argv) {
  using namespace fedcross;

  util::FlagParser flags(argc, argv);
  fl::SetFlThreads(flags.GetInt("fl_threads", 0));
  std::string algo = flags.GetString("algo", "fedcross");
  int rounds = flags.GetInt("rounds", 40);
  int num_clients = flags.GetInt("clients", 20);
  int k = flags.GetInt("k", 4);
  double beta = flags.GetDouble("beta", 0.5);
  double alpha = flags.GetDouble("alpha", 0.9);
  std::string strategy_name =
      flags.GetString("strategy", "lowest-similarity");
  std::string codec_name = flags.GetString("codec", "identity");
  double topk = flags.GetDouble("topk", 0.1);
  std::string exec_name = flags.GetString("exec", "layers");
  std::string population_name = flags.GetString("population", "resident");
  int max_resident = flags.GetInt("max_resident", 0);
  std::string round_mode_name = flags.GetString("round_mode", "sync");
  int buffer = flags.GetInt("buffer", 0);
  std::string staleness_name = flags.GetString("staleness", "polynomial");
  double staleness_exponent = flags.GetDouble("staleness_exponent", 0.5);
  double timeout = flags.GetDouble("timeout", 0.0);
  int max_retries = flags.GetInt("max_retries", 1);
  double speed_min = flags.GetDouble("speed_min", 100.0);
  double speed_max = flags.GetDouble("speed_max", 100.0);
  double bw_min = flags.GetDouble("bw_min", 1e9);
  double bw_max = flags.GetDouble("bw_max", 1e9);
  double jitter = flags.GetDouble("jitter", 0.0);
  double dropout_prob = flags.GetDouble("dropout_prob", 0.0);
  double straggler_prob = flags.GetDouble("straggler_prob", 0.0);
  double slowdown_min = flags.GetDouble("slowdown_min", 2.0);
  double slowdown_max = flags.GetDouble("slowdown_max", 8.0);
  double round_deadline = flags.GetDouble("round_deadline", 0.0);
  double dp_clip = flags.GetDouble("dp_clip", 0.0);
  double dp_noise = flags.GetDouble("dp_noise", 0.0);
  double dp_delta = flags.GetDouble("dp_delta", 1e-5);
  bool secure_agg = flags.GetBool("secure_agg", false);
  util::Status obs_status = util::InitObservability(flags);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    return 1;
  }
  if (!obs_status.ok()) {
    std::fprintf(stderr, "%s\n", obs_status.ToString().c_str());
    return 1;
  }

  fl::PopulationMode population = fl::PopulationMode::kResident;
  if (!fl::ParsePopulationMode(population_name, &population)) {
    std::fprintf(stderr,
                 "unknown --population '%s' (want resident|virtual)\n",
                 population_name.c_str());
    return 1;
  }

  // 1. Data: a synthetic image corpus. Resident mode Dirichlet-partitions a
  // shared corpus up front (the historical path); virtual mode registers
  // only a shard factory, so any --clients count costs nothing until a
  // client is actually sampled.
  data::SyntheticImageOptions image_options;
  image_options.num_classes = 10;
  image_options.height = image_options.width = 8;
  image_options.train_per_class = 60;
  image_options.test_per_class = 20;

  data::FederatedDataset federated;
  if (population == fl::PopulationMode::kVirtual) {
    data::VirtualImageOptions virtual_options;
    virtual_options.image = image_options;
    virtual_options.num_clients = num_clients;
    if (beta > 0) virtual_options.label_concentration = beta;
    federated = data::MakeVirtualImageFederation(virtual_options);
  } else {
    data::ImageCorpus corpus = data::MakeSyntheticImageCorpus(image_options);
    util::Rng rng(7);
    federated.num_classes = 10;
    federated.client_train = data::MakeClientShards(
        corpus.train,
        beta > 0 ? data::DirichletPartition(*corpus.train, num_clients, beta,
                                            rng)
                 : data::IidPartition(*corpus.train, num_clients, rng));
    federated.test = corpus.test;
  }

  // 2. Model: the FedAvg-style CNN, sized for the 8x8 synthetic images.
  models::CnnConfig cnn;
  cnn.height = cnn.width = 8;
  cnn.num_classes = 10;
  models::ModelFactory factory = models::MakeCnn(cnn);

  // 3. The server. Both algorithms share AlgorithmConfig; FedCross adds its
  // cross-aggregation options.
  fl::AlgorithmConfig config;
  config.clients_per_round = k;
  config.train.local_epochs = 5;
  config.train.batch_size = 20;
  config.train.lr = 0.03f;
  config.train.momentum = 0.5f;
  util::StatusOr<comm::Scheme> scheme = comm::ParseScheme(codec_name);
  if (!scheme.ok()) {
    std::fprintf(stderr, "%s\n", scheme.status().ToString().c_str());
    return 1;
  }
  config.codec.scheme = scheme.value();
  config.codec.topk_fraction = topk;
  if (util::Status codec = comm::ValidateCodecOptions(config.codec);
      !codec.ok()) {
    std::fprintf(stderr, "--topk: %s\n", codec.ToString().c_str());
    return 1;
  }
  config.population = population;
  config.state_store.max_resident = max_resident;
  if (!fl::ParseExecMode(exec_name, &config.train.exec)) {
    std::fprintf(stderr, "unknown --exec '%s' (want layers|plan)\n",
                 exec_name.c_str());
    return 1;
  }
  if (!fl::ParseRoundMode(round_mode_name, &config.async.mode)) {
    std::fprintf(stderr, "unknown --round_mode '%s' (want sync|async)\n",
                 round_mode_name.c_str());
    return 1;
  }
  if (!fl::ParseStalenessPolicy(staleness_name, &config.async.staleness)) {
    std::fprintf(stderr,
                 "unknown --staleness '%s' (want constant|polynomial)\n",
                 staleness_name.c_str());
    return 1;
  }
  config.async.buffer_size = buffer;
  config.async.staleness_exponent = staleness_exponent;
  config.async.dispatch_timeout = timeout;
  config.async.max_retries = max_retries;
  config.async.clock.compute_speed_min = speed_min;
  config.async.clock.compute_speed_max = speed_max;
  config.async.clock.bandwidth_min = bw_min;
  config.async.clock.bandwidth_max = bw_max;
  config.async.clock.jitter = jitter;
  if (util::Status async = fl::ValidateAsyncOptions(config.async);
      !async.ok()) {
    // The message leads with the field; name the flags that set it.
    const char* flag = "--jitter";
    for (const auto& [field, flags_for] :
         {std::pair{"max_retries", "--max_retries"},
          std::pair{"buffer_size", "--buffer"},
          std::pair{"compute_speed", "--speed_min/--speed_max"},
          std::pair{"bandwidth", "--bw_min/--bw_max"}}) {
      if (async.message().starts_with(field)) flag = flags_for;
    }
    std::fprintf(stderr, "%s: %s\n", flag, async.ToString().c_str());
    return 1;
  }
  config.faults.profile.dropout_prob = dropout_prob;
  config.faults.profile.straggler_prob = straggler_prob;
  config.faults.profile.slowdown_min = slowdown_min;
  config.faults.profile.slowdown_max = slowdown_max;
  config.faults.round_deadline = round_deadline;
  if (util::Status faults = fl::ValidateFaultModel(config.faults);
      !faults.ok()) {
    // The message leads with the field, which is also the flag's name.
    const std::string field =
        faults.message().substr(0, faults.message().find(' '));
    std::fprintf(stderr, "--%s: %s\n", field.c_str(),
                 faults.ToString().c_str());
    return 1;
  }
  config.dp.clip_norm = static_cast<float>(dp_clip);
  config.dp.noise_multiplier = static_cast<float>(dp_noise);
  config.dp.delta = dp_delta;
  config.secure_agg.enabled = secure_agg;

  std::unique_ptr<fl::FlAlgorithm> server;
  if (algo == "fedavg") {
    server = std::make_unique<fl::FedAvg>(config, std::move(federated),
                                          factory);
  } else if (algo == "fedcross") {
    auto strategy = core::ParseSelectionStrategy(strategy_name);
    if (!strategy.ok()) {
      std::fprintf(stderr, "%s\n", strategy.status().ToString().c_str());
      return 1;
    }
    core::FedCrossOptions options;
    options.alpha = alpha;
    options.strategy = strategy.value();
    server = std::make_unique<core::FedCross>(config, std::move(federated),
                                              factory, options);
  } else {
    std::fprintf(stderr, "unknown --algo '%s' (want fedcross|fedavg)\n",
                 algo.c_str());
    return 1;
  }

  std::printf("%s quickstart: %d clients (%s), K=%d, beta=%s, alpha=%.2f"
              ", codec=%s, exec=%s\n",
              server->name().c_str(), num_clients,
              fl::PopulationModeName(population), k,
              beta > 0 ? "non-IID" : "IID", alpha,
              comm::SchemeName(config.codec.scheme),
              fl::ExecModeName(config.train.exec));
  std::printf("model: %s\n", factory().Summary().c_str());
  // Engine lines appear only when the virtual-clock engine can change the
  // run, so a default (sync, homogeneous, fault-free) invocation's stdout
  // stays byte-identical to pre-engine builds.
  const bool engine_active = config.async.mode == fl::RoundMode::kAsync ||
                             config.async.clock.Heterogeneous() ||
                             config.faults.AnyActive();
  if (engine_active) {
    std::printf("engine: %s, buffer=%d, staleness=%s(a=%.2f), timeout=%g"
                ", retries=%d, deadline=%g\n",
                fl::RoundModeName(config.async.mode), config.async.buffer_size,
                fl::StalenessPolicyName(config.async.staleness),
                config.async.staleness_exponent, config.async.dispatch_timeout,
                config.async.max_retries, config.faults.round_deadline);
  }
  // Privacy line, same convention: only printed when the subsystem can
  // change the run, keeping default stdout byte-identical to older builds.
  const bool privacy_active =
      config.dp.Enabled() || config.secure_agg.Enabled();
  if (privacy_active) {
    std::printf("privacy: clip=%g, noise=%g, delta=%g, secure_agg=%s\n",
                static_cast<double>(config.dp.clip_norm),
                static_cast<double>(config.dp.noise_multiplier),
                config.dp.delta, config.secure_agg.Enabled() ? "on" : "off");
  }

  // Run() drives the rounds, evaluates every 5th, and feeds every enabled
  // observability sink. The history replays the eval cadence below.
  const fl::MetricsHistory& history = server->Run(rounds, /*eval_every=*/5);
  for (const fl::RoundRecord& record : history.records()) {
    std::printf("round %3d  accuracy %.2f%%  loss %.4f\n", record.round,
                record.test_accuracy * 100, record.test_loss);
  }
  if (engine_active) {
    // Virtual time is a pure function of the run config, so this line is
    // part of the thread-count determinism surface too.
    std::printf("virtual time %.6f s over %lld aggregations"
                ", %lld uploads still in flight\n",
                server->virtual_now(),
                static_cast<long long>(server->model_version()),
                static_cast<long long>(server->inflight_dispatches()));
  }
  if (privacy_active) {
    // Epsilon is a pure function of (q, sigma, rounds), so this line rides
    // the thread-count determinism surface as well.
    const fl::PrivacyStats& privacy = server->privacy_stats();
    std::printf("privacy spent: epsilon=%.6g at delta=%g"
                ", clipped=%lld, mask_pairs=%lld, mask_recoveries=%lld\n",
                server->privacy_epsilon(), config.dp.delta,
                static_cast<long long>(privacy.clipped),
                static_cast<long long>(privacy.mask_pairs),
                static_cast<long long>(privacy.mask_recoveries));
  }
  // stderr: peak RSS varies with --fl_threads (more replicas), and stdout
  // must stay byte-identical across thread counts (the determinism check).
  std::fprintf(
      stderr, "resident clients: %lld of %lld registered, peak RSS %.1f MiB\n",
      static_cast<long long>(server->population().resident_clients()),
      static_cast<long long>(server->num_clients()),
      static_cast<double>(util::PeakRssBytes()) / (1024.0 * 1024.0));

  util::Status flushed = util::FlushObservability();
  if (!flushed.ok()) {
    std::fprintf(stderr, "%s\n", flushed.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
