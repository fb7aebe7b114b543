// The event-driven async round engine. The invariants under test:
//   * clock profiles and jitter live on dedicated RNG streams, so enabling
//     the heterogeneous clock in sync mode cannot perturb a single training
//     trajectory (sync stays bit-identical to the clean run);
//   * virtual time and the whole async trajectory are pure functions of the
//     config — bit-identical across --fl_threads values and across reruns;
//   * staleness weights match the FedBuff family by hand;
//   * a sync round is an async round whose buffer is the whole batch,
//     handed over in slot order (one dispatch pipeline serves both);
//   * engine options that cannot mean what they say are rejected;
//   * buffered aggregation beats the sync barrier on virtual time under
//     straggler-heavy fleets;
//   * checkpoints capture the engine mid-buffer (save -> kill -> load
//     resumes bit-identically with uploads still in flight).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/fedcross.h"
#include "fl/algorithm.h"
#include "fl/clock.h"
#include "fl/clusamp.h"
#include "fl/fedavg.h"
#include "fl/fedcluster.h"
#include "fl/fedgen.h"
#include "fl/parallel.h"
#include "fl/scaffold.h"
#include "nn/linear.h"

namespace fedcross::fl {
namespace {

models::ModelFactory LinearFactory(int dim, std::uint64_t seed = 1) {
  return [dim, seed]() {
    util::Rng rng(seed);
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

AlgorithmConfig ToyConfig() {
  AlgorithmConfig config;
  config.clients_per_round = 4;
  config.train.local_epochs = 1;
  config.train.batch_size = 10;
  config.train.lr = 0.05f;
  config.seed = 17;
  return config;
}

// A straggler-prone fleet on a heterogeneous clock, with a per-dispatch
// deadline so slow attempts time out and re-dispatch.
AlgorithmConfig AsyncConfig() {
  AlgorithmConfig config = ToyConfig();
  config.async.mode = RoundMode::kAsync;
  config.async.buffer_size = 3;
  config.async.dispatch_timeout = 0.5;
  config.async.max_retries = 1;
  config.async.clock.compute_speed_min = 25.0;
  config.async.clock.compute_speed_max = 400.0;
  config.async.clock.bandwidth_min = 1e6;
  config.async.clock.bandwidth_max = 1e9;
  config.async.clock.jitter = 0.1;
  config.faults.profile.dropout_prob = 0.1;
  config.faults.profile.straggler_prob = 0.4;
  return config;
}

std::unique_ptr<FlAlgorithm> MakeAlgorithm(const std::string& name,
                                           AlgorithmConfig config) {
  data::FederatedDataset data = MakeToyFederated(8, 40, 4, 41);
  models::ModelFactory factory = LinearFactory(4);
  if (name == "FedAvg") {
    return std::make_unique<FedAvg>(config, std::move(data),
                                    std::move(factory));
  }
  if (name == "FedProx") {
    return std::make_unique<FedProx>(config, std::move(data),
                                     std::move(factory), 0.1f);
  }
  if (name == "SCAFFOLD") {
    return std::make_unique<Scaffold>(config, std::move(data),
                                      std::move(factory));
  }
  if (name == "FedGen") {
    return std::make_unique<FedGen>(config, std::move(data),
                                    std::move(factory));
  }
  if (name == "CluSamp") {
    return std::make_unique<CluSamp>(config, std::move(data),
                                     std::move(factory));
  }
  if (name == "FedCluster") {
    return std::make_unique<FedCluster>(config, std::move(data),
                                        std::move(factory), /*num_clusters=*/2);
  }
  if (name == "FedCross") {
    core::FedCrossOptions options;
    options.alpha = 0.9;
    return std::make_unique<core::FedCross>(config, std::move(data),
                                            std::move(factory), options);
  }
  ADD_FAILURE() << "unknown algorithm " << name;
  return nullptr;
}

const char* kAllAlgorithms[] = {"FedAvg",  "FedProx",    "SCAFFOLD", "FedGen",
                                "CluSamp", "FedCluster", "FedCross"};

void ExpectBitIdentical(const FlatParams& a, const FlatParams& b) {
  ASSERT_EQ(a.size(), b.size());
  if (a.empty()) return;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

// Restores the FL pool size when a test that varies it exits (including on
// assertion failure), so later tests see the default again.
struct ThreadGuard {
  ~ThreadGuard() { SetFlThreads(0); }
};

// --------------------------------------------------------------------------
// Virtual clock primitives
// --------------------------------------------------------------------------

TEST(ClockTest, ProfileIsDeterministicPerClientAndBounded) {
  ClockModel model;
  model.compute_speed_min = 10.0;
  model.compute_speed_max = 1000.0;
  model.bandwidth_min = 1e5;
  model.bandwidth_max = 1e9;

  bool saw_distinct_speed = false;
  for (std::int64_t id = 0; id < 64; ++id) {
    ClockProfile a = DrawClockProfile(model, /*seed=*/7, id);
    ClockProfile b = DrawClockProfile(model, /*seed=*/7, id);
    EXPECT_EQ(a.compute_speed, b.compute_speed) << id;
    EXPECT_EQ(a.bandwidth, b.bandwidth) << id;
    EXPECT_GE(a.compute_speed, model.compute_speed_min);
    EXPECT_LE(a.compute_speed, model.compute_speed_max);
    EXPECT_GE(a.bandwidth, model.bandwidth_min);
    EXPECT_LE(a.bandwidth, model.bandwidth_max);
    ClockProfile other = DrawClockProfile(model, /*seed=*/7, id + 1);
    saw_distinct_speed |= other.compute_speed != a.compute_speed;
  }
  EXPECT_TRUE(saw_distinct_speed) << "heterogeneous model drew a flat fleet";

  // Different run seeds re-roll the fleet.
  ClockProfile reseeded = DrawClockProfile(model, /*seed=*/8, 0);
  ClockProfile original = DrawClockProfile(model, /*seed=*/7, 0);
  EXPECT_NE(reseeded.compute_speed, original.compute_speed);

  // The homogeneous default collapses to the exact configured point.
  ClockModel flat;
  EXPECT_FALSE(flat.Heterogeneous());
  ClockProfile p = DrawClockProfile(flat, /*seed=*/7, 3);
  EXPECT_EQ(p.compute_speed, 100.0);
  EXPECT_EQ(p.bandwidth, 1e9);
}

TEST(ClockTest, ClockSeedSeparatesJobs) {
  EXPECT_EQ(ClockSeed(1, 2, 3, 4), ClockSeed(1, 2, 3, 4));
  EXPECT_NE(ClockSeed(1, 2, 3, 4), ClockSeed(1, 2, 3, 5));
  EXPECT_NE(ClockSeed(1, 2, 3, 4), ClockSeed(1, 2, 4, 4));
  EXPECT_NE(ClockSeed(1, 2, 3, 4), ClockSeed(1, 3, 3, 4));
  EXPECT_NE(ClockSeed(1, 2, 3, 4), ClockSeed(2, 2, 3, 4));
}

TEST(ClockTest, SimulatedDurationComposes) {
  ClockProfile profile;
  profile.compute_speed = 50.0;  // steps / s
  profile.bandwidth = 1000.0;    // bytes / s
  // 200 bytes down + 300 up at 1000 B/s = 0.5 s; 2x slowdown * 25 steps at
  // 50 steps/s = 1.0 s, jittered by 1.1 -> 1.1 s.
  double d = SimulatedDuration(profile, /*slowdown=*/2.0, /*steps=*/25.0,
                               /*wire_bytes_down=*/200, /*wire_bytes_up=*/300,
                               /*jitter_factor=*/1.1);
  EXPECT_NEAR(d, 0.5 + 1.1, 1e-12);
}

TEST(ClockTest, StalenessWeightMatchesFedBuffFamily) {
  EXPECT_EQ(StalenessWeight(StalenessPolicy::kConstant, 0.5, 0), 1.0);
  EXPECT_EQ(StalenessWeight(StalenessPolicy::kConstant, 0.5, 9), 1.0);
  EXPECT_EQ(StalenessWeight(StalenessPolicy::kPolynomial, 0.5, 0), 1.0);
  EXPECT_NEAR(StalenessWeight(StalenessPolicy::kPolynomial, 0.5, 3), 0.5,
              1e-12);
  EXPECT_NEAR(StalenessWeight(StalenessPolicy::kPolynomial, 1.0, 4), 0.2,
              1e-12);
  double prev = 1.0;
  for (int tau = 1; tau < 8; ++tau) {
    double w = StalenessWeight(StalenessPolicy::kPolynomial, 0.5, tau);
    EXPECT_LT(w, prev) << tau;
    prev = w;
  }
}

TEST(ClockTest, ParseRoundTrips) {
  RoundMode mode = RoundMode::kSync;
  EXPECT_TRUE(ParseRoundMode("async", &mode));
  EXPECT_EQ(mode, RoundMode::kAsync);
  EXPECT_TRUE(ParseRoundMode(RoundModeName(RoundMode::kSync), &mode));
  EXPECT_EQ(mode, RoundMode::kSync);
  EXPECT_FALSE(ParseRoundMode("bogus", &mode));

  StalenessPolicy policy = StalenessPolicy::kConstant;
  EXPECT_TRUE(ParseStalenessPolicy("polynomial", &policy));
  EXPECT_EQ(policy, StalenessPolicy::kPolynomial);
  EXPECT_TRUE(
      ParseStalenessPolicy(StalenessPolicyName(StalenessPolicy::kConstant),
                           &policy));
  EXPECT_EQ(policy, StalenessPolicy::kConstant);
  EXPECT_FALSE(ParseStalenessPolicy("bogus", &policy));
}

TEST(ClockTest, ValidateAsyncOptionsRejectsWhatCannotMeanWhatItSays) {
  AsyncOptions edge;
  EXPECT_TRUE(ValidateAsyncOptions(edge).ok());
  edge.dispatch_timeout = -1.0;  // <= 0 means no timeout
  edge.max_retries = kMaxRetries;
  edge.clock.jitter = 0.0;
  EXPECT_TRUE(ValidateAsyncOptions(edge).ok());
  // The largest budget's last attempt salt still fits an int.
  EXPECT_EQ(kMaxRetries, 32767);
  EXPECT_LE(static_cast<std::int64_t>(kMaxRetries) * kRetrySaltStride +
                kRetrySaltStride - 1,
            std::numeric_limits<int>::max());

  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto rejects = [](const std::string& field, auto mutate) {
    AsyncOptions options;
    mutate(options);
    const util::Status status = ValidateAsyncOptions(options);
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument) << field;
    EXPECT_EQ(status.message().rfind(field, 0), 0u) << status.message();
  };
  rejects("max_retries", [](AsyncOptions& o) { o.max_retries = -1; });
  rejects("max_retries",
          [](AsyncOptions& o) { o.max_retries = kMaxRetries + 1; });
  rejects("buffer_size", [](AsyncOptions& o) { o.buffer_size = -2; });
  rejects("compute_speed",
          [](AsyncOptions& o) { o.clock.compute_speed_min = 0.0; });
  rejects("compute_speed",
          [](AsyncOptions& o) { o.clock.compute_speed_min = -1.0; });
  rejects("compute_speed",
          [](AsyncOptions& o) { o.clock.compute_speed_min = 200.0; });
  rejects("compute_speed",
          [&](AsyncOptions& o) { o.clock.compute_speed_max = inf; });
  rejects("bandwidth", [](AsyncOptions& o) { o.clock.bandwidth_min = 0.0; });
  rejects("bandwidth", [](AsyncOptions& o) { o.clock.bandwidth_max = 1.0; });
  rejects("bandwidth", [&](AsyncOptions& o) { o.clock.bandwidth_min = nan; });
  rejects("jitter", [](AsyncOptions& o) { o.clock.jitter = -0.1; });
  rejects("jitter", [&](AsyncOptions& o) { o.clock.jitter = nan; });

  // The server refuses them too, rather than simulating them.
  AlgorithmConfig config = ToyConfig();
  config.async.max_retries = kMaxRetries + 1;
  EXPECT_DEATH(MakeAlgorithm("FedAvg", config), "max_retries");
}

// --------------------------------------------------------------------------
// Sync mode: the clock is observation-only
// --------------------------------------------------------------------------

TEST(SyncClockTest, HeterogeneousClockCannotPerturbTraining) {
  // The clock stream is independent of the training / fault / codec
  // streams, so a sync run on a wildly heterogeneous fleet must produce the
  // exact parameters of the clean run — only virtual time may differ.
  for (const char* name : kAllAlgorithms) {
    SCOPED_TRACE(name);
    std::unique_ptr<FlAlgorithm> clean = MakeAlgorithm(name, ToyConfig());
    clean->Run(3, /*eval_every=*/1);

    AlgorithmConfig clocked_config = ToyConfig();
    clocked_config.async.clock.compute_speed_min = 5.0;
    clocked_config.async.clock.compute_speed_max = 500.0;
    clocked_config.async.clock.bandwidth_min = 1e5;
    clocked_config.async.clock.bandwidth_max = 1e8;
    clocked_config.async.clock.jitter = 0.25;
    std::unique_ptr<FlAlgorithm> clocked = MakeAlgorithm(name, clocked_config);
    clocked->Run(3, /*eval_every=*/1);

    ExpectBitIdentical(clean->GlobalParams(), clocked->GlobalParams());
    EXPECT_GT(clocked->virtual_now(), 0.0);
    EXPECT_NE(clocked->virtual_now(), clean->virtual_now());
    EXPECT_EQ(clocked->inflight_dispatches(), 0);
  }
}

TEST(SyncClockTest, VirtualTimeIsThreadCountInvariant) {
  ThreadGuard guard;
  AlgorithmConfig config = ToyConfig();
  config.async.clock.compute_speed_min = 5.0;
  config.async.clock.compute_speed_max = 500.0;
  config.async.clock.jitter = 0.25;

  SetFlThreads(1);
  std::unique_ptr<FlAlgorithm> sequential = MakeAlgorithm("FedAvg", config);
  sequential->Run(3, /*eval_every=*/1);

  SetFlThreads(4);
  std::unique_ptr<FlAlgorithm> pooled = MakeAlgorithm("FedAvg", config);
  pooled->Run(3, /*eval_every=*/1);

  EXPECT_EQ(sequential->virtual_now(), pooled->virtual_now());
  ExpectBitIdentical(sequential->GlobalParams(), pooled->GlobalParams());
}

// --------------------------------------------------------------------------
// Async mode: determinism
// --------------------------------------------------------------------------

TEST(AsyncTest, TrajectoryIsThreadCountInvariant) {
  // The whole async trajectory — parameters, virtual time, fault and waste
  // accounting — is a pure function of the config, independent of how many
  // threads resolve the dispatches.
  ThreadGuard guard;
  for (const char* name : kAllAlgorithms) {
    SCOPED_TRACE(name);
    SetFlThreads(1);
    std::unique_ptr<FlAlgorithm> sequential =
        MakeAlgorithm(name, AsyncConfig());
    sequential->Run(4, /*eval_every=*/1);

    SetFlThreads(4);
    std::unique_ptr<FlAlgorithm> pooled = MakeAlgorithm(name, AsyncConfig());
    pooled->Run(4, /*eval_every=*/1);

    ExpectBitIdentical(sequential->GlobalParams(), pooled->GlobalParams());
    EXPECT_EQ(sequential->virtual_now(), pooled->virtual_now());
    EXPECT_EQ(sequential->model_version(), pooled->model_version());
    EXPECT_EQ(sequential->inflight_dispatches(),
              pooled->inflight_dispatches());
    EXPECT_EQ(sequential->fault_stats().timeouts,
              pooled->fault_stats().timeouts);
    EXPECT_EQ(sequential->fault_stats().retries,
              pooled->fault_stats().retries);
    EXPECT_EQ(sequential->comm().total_wasted_bytes(),
              pooled->comm().total_wasted_bytes());
    EXPECT_EQ(sequential->comm().total_wire_wasted_bytes(),
              pooled->comm().total_wire_wasted_bytes());
  }
}

TEST(AsyncTest, RerunsAreBitIdentical) {
  std::unique_ptr<FlAlgorithm> first = MakeAlgorithm("FedAvg", AsyncConfig());
  first->Run(4, /*eval_every=*/1);
  std::unique_ptr<FlAlgorithm> second = MakeAlgorithm("FedAvg", AsyncConfig());
  second->Run(4, /*eval_every=*/1);
  ExpectBitIdentical(first->GlobalParams(), second->GlobalParams());
  EXPECT_EQ(first->virtual_now(), second->virtual_now());
}

TEST(AsyncTest, EngineStateAdvances) {
  std::unique_ptr<FlAlgorithm> algo = MakeAlgorithm("FedAvg", AsyncConfig());
  algo->Run(4, /*eval_every=*/1);
  // One aggregation per round, a buffered backlog (4 dispatched, 3
  // collected per round, minus faults), and a moving clock.
  EXPECT_EQ(algo->model_version(), 4);
  EXPECT_GT(algo->virtual_now(), 0.0);
  EXPECT_GE(algo->inflight_dispatches(), 0);
}

TEST(AsyncTest, TimeoutsRetryAndCountWaste) {
  // A deadline far below any attainable duration forces every dispatch
  // through the retry ladder and into the straggler bin, with all traffic
  // accounted as wasted.
  AlgorithmConfig config = ToyConfig();
  config.async.mode = RoundMode::kAsync;
  config.async.buffer_size = 2;
  config.async.dispatch_timeout = 1e-9;
  config.async.max_retries = 2;
  std::unique_ptr<FlAlgorithm> algo = MakeAlgorithm("FedAvg", config);
  algo->Run(2, /*eval_every=*/1);

  // 2 rounds x 4 slots x (1 + 2 retries) attempts, all timing out.
  EXPECT_EQ(algo->fault_stats().timeouts, 24);
  EXPECT_EQ(algo->fault_stats().retries, 16);
  EXPECT_EQ(algo->fault_stats().stragglers, 8);
  EXPECT_GT(algo->comm().total_wasted_bytes(), 0u);
  EXPECT_GT(algo->comm().total_wire_wasted_bytes(), 0u);
  // Nothing ever lands: the global model never moves off its init.
  ExpectBitIdentical(algo->GlobalParams(),
                     MakeAlgorithm("FedAvg", config)->GlobalParams());
}

TEST(AsyncTest, SyncDropoutCountsWastedDispatchBytes) {
  AlgorithmConfig config = ToyConfig();
  config.faults.profile.dropout_prob = 1.0;
  std::unique_ptr<FlAlgorithm> algo = MakeAlgorithm("FedAvg", config);
  algo->Run(2, /*eval_every=*/1);
  // Every dispatch was lost, so the whole download side is wasted and no
  // upload happened at all.
  EXPECT_EQ(algo->comm().total_wasted_bytes(),
            algo->comm().total_download_bytes());
  EXPECT_EQ(algo->comm().total_upload_bytes(), 0u);
}

// --------------------------------------------------------------------------
// Sync and async share one dispatch pipeline
// --------------------------------------------------------------------------

// Exposes TrainClients: each call dispatches `jobs` clients, chosen by the
// round, against the probe's model, which then moves to the accepted upload
// of the lowest slot (the same upload in sync and async).
class DispatchProbe : public FlAlgorithm {
 public:
  DispatchProbe(AlgorithmConfig config, data::FederatedDataset data,
                models::ModelFactory factory)
      : FlAlgorithm("probe", config, std::move(data), std::move(factory)),
        model_(InitialParams()) {
    spec_.options = config.train;
  }

  std::vector<LocalTrainResult> Dispatch(int round, int jobs) {
    std::vector<ClientJob> batch(jobs);
    for (int slot = 0; slot < jobs; ++slot) {
      batch[slot].client_id = (3 * round + slot) % num_clients();
      batch[slot].init_params = &model_;
      batch[slot].spec = &spec_;
    }
    std::vector<LocalTrainResult> results = TrainClients(round, 0, batch);
    const LocalTrainResult* lowest = nullptr;
    for (const LocalTrainResult& result : results) {
      if (!result.dropped && (lowest == nullptr || result.slot < lowest->slot)) {
        lowest = &result;
      }
    }
    if (lowest != nullptr) model_ = lowest->params;
    return results;
  }

  void RunRound(int) override {}
  FlatParams GlobalParams() override { return model_; }

 private:
  FlatParams model_;
  ClientTrainSpec spec_;
};

TEST(AsyncTest, SyncIsAsyncWithAFullBufferInSlotOrder) {
  // With no round deadline and no dispatch timeout, a sync round and an
  // async round whose buffer is the whole batch resolve every slot to the
  // same bytes, tallies and virtual time: sync only hands the slots over in
  // slot order, dropped ones included, where async hands over arrivals.
  ThreadGuard guard;
  constexpr int kJobs = 8;
  constexpr int kRounds = 4;
  int compared = 0;
  for (ExecMode exec : {ExecMode::kLayers, ExecMode::kPlan}) {
    for (comm::Scheme scheme : {comm::Scheme::kIdentity,
                                comm::Scheme::kInt8TopK}) {
      for (int threads : {1, 4}) {
        SCOPED_TRACE(std::string(ExecModeName(exec)) + "/" +
                     comm::SchemeName(scheme) + "/" + std::to_string(threads));
        SetFlThreads(threads);
        AlgorithmConfig config = ToyConfig();
        config.clients_per_round = kJobs;
        config.train.exec = exec;
        config.codec.scheme = scheme;
        config.faults.profile.dropout_prob = 0.1;
        config.faults.profile.straggler_prob = 0.3;
        config.faults.profile.corrupt_prob = 0.3;
        config.faults.profile.corruption = CorruptionKind::kNanInject;
        config.screening.check_finite = true;
        config.dp.clip_norm = 0.02f;
        config.dp.noise_multiplier = 0.2f;
        config.async.clock.compute_speed_min = 25.0;
        config.async.clock.compute_speed_max = 400.0;
        config.async.clock.bandwidth_min = 1e5;
        config.async.clock.bandwidth_max = 1e8;
        config.async.clock.jitter = 0.2;
        AlgorithmConfig async_config = config;
        async_config.async.mode = RoundMode::kAsync;
        async_config.async.buffer_size = kJobs;

        DispatchProbe sync(config, MakeToyFederated(12, 40, 4, 41),
                           LinearFactory(4));
        DispatchProbe async(async_config, MakeToyFederated(12, 40, 4, 41),
                            LinearFactory(4));
        for (int round = 0; round < kRounds; ++round) {
          const std::vector<LocalTrainResult> by_slot =
              sync.Dispatch(round, kJobs);
          const std::vector<LocalTrainResult> arrivals =
              async.Dispatch(round, kJobs);
          ASSERT_EQ(by_slot.size(), static_cast<std::size_t>(kJobs));
          int uploads = 0;
          for (int slot = 0; slot < kJobs; ++slot) {
            EXPECT_EQ(by_slot[slot].slot, slot);
            if (!by_slot[slot].dropped) ++uploads;
          }
          ASSERT_EQ(arrivals.size(), static_cast<std::size_t>(uploads));
          for (const LocalTrainResult& got : arrivals) {
            const LocalTrainResult& want = by_slot[got.slot];
            EXPECT_FALSE(want.dropped) << "slot " << got.slot;
            ExpectBitIdentical(got.params, want.params);
            EXPECT_EQ(got.client_id, want.client_id);
            EXPECT_EQ(got.num_steps, want.num_steps);
            EXPECT_EQ(got.wire_bytes_down, want.wire_bytes_down);
            EXPECT_EQ(got.wire_bytes_up, want.wire_bytes_up);
            EXPECT_EQ(got.fault, want.fault);
            EXPECT_EQ(got.dp_clipped, want.dp_clipped);
            EXPECT_EQ(got.mean_loss, want.mean_loss);
            EXPECT_EQ(got.weight_scale, 1.0);
            ++compared;
          }
          EXPECT_EQ(async.inflight_dispatches(), 0);
        }

        EXPECT_EQ(sync.virtual_now(), async.virtual_now());
        EXPECT_GT(sync.virtual_now(), 0.0);
        const CommTracker& a = sync.comm();
        const CommTracker& b = async.comm();
        EXPECT_EQ(a.total_download_bytes(), b.total_download_bytes());
        EXPECT_EQ(a.total_upload_bytes(), b.total_upload_bytes());
        EXPECT_EQ(a.total_wire_download_bytes(), b.total_wire_download_bytes());
        EXPECT_EQ(a.total_wire_upload_bytes(), b.total_wire_upload_bytes());
        EXPECT_EQ(a.total_wasted_bytes(), b.total_wasted_bytes());
        EXPECT_EQ(a.total_wire_wasted_bytes(), b.total_wire_wasted_bytes());
        const FaultStats& fa = sync.fault_stats();
        const FaultStats& fb = async.fault_stats();
        EXPECT_EQ(fa.dropouts, fb.dropouts);
        EXPECT_EQ(fa.stragglers, fb.stragglers);
        EXPECT_EQ(fa.corrupted, fb.corrupted);
        EXPECT_EQ(fa.rejected, fb.rejected);
        EXPECT_EQ(fa.timeouts, fb.timeouts);
        EXPECT_EQ(fa.retries, fb.retries);
        EXPECT_GT(fa.dropouts, 0);
        EXPECT_GT(fa.rejected, 0);
        EXPECT_EQ(sync.privacy_stats().clipped, async.privacy_stats().clipped);
        EXPECT_GT(sync.privacy_stats().clipped, 0);
        EXPECT_EQ(sync.model_version(), async.model_version());
        EXPECT_EQ(sync.privacy_epsilon(), async.privacy_epsilon());
        ExpectBitIdentical(sync.GlobalParams(), async.GlobalParams());
      }
    }
  }
  EXPECT_GT(compared, 0);
}

// --------------------------------------------------------------------------
// Async beats the sync barrier on virtual time under stragglers
// --------------------------------------------------------------------------

TEST(AsyncTest, BuffersBeatTheBarrierUnderStragglers) {
  // Same fleet, same faults: sync pays the max over all slots every round
  // (the barrier waits for the slowest straggler), async pays only until
  // the buffer fills with the earliest arrivals.
  AlgorithmConfig sync_config = ToyConfig();
  sync_config.async.clock.compute_speed_min = 25.0;
  sync_config.async.clock.compute_speed_max = 400.0;
  sync_config.faults.profile.straggler_prob = 0.6;

  AlgorithmConfig async_config = sync_config;
  async_config.async.mode = RoundMode::kAsync;
  async_config.async.buffer_size = 2;

  std::unique_ptr<FlAlgorithm> sync_run = MakeAlgorithm("FedAvg", sync_config);
  sync_run->Run(8, /*eval_every=*/8);
  std::unique_ptr<FlAlgorithm> async_run =
      MakeAlgorithm("FedAvg", async_config);
  async_run->Run(8, /*eval_every=*/8);

  EXPECT_GT(sync_run->virtual_now(), 0.0);
  EXPECT_LT(async_run->virtual_now(), 0.7 * sync_run->virtual_now());
}

// --------------------------------------------------------------------------
// Checkpoints: mid-buffer resume
// --------------------------------------------------------------------------

TEST(AsyncCheckpointTest, MidBufferResumeIsBitIdentical) {
  for (const char* name : {"FedAvg", "FedCross"}) {
    SCOPED_TRACE(name);
    const std::string path = std::string("async_ckpt_") + name + ".bin";
    AlgorithmConfig config = AsyncConfig();

    std::unique_ptr<FlAlgorithm> full = MakeAlgorithm(name, config);
    full->Run(6, /*eval_every=*/1);

    // Interrupt with uploads still in flight: the checkpoint must carry
    // the buffered arrivals, the clock, and the version counters.
    std::int64_t inflight_at_save = 0;
    {
      std::unique_ptr<FlAlgorithm> first = MakeAlgorithm(name, config);
      first->Run(3, /*eval_every=*/1);
      inflight_at_save = first->inflight_dispatches();
      ASSERT_TRUE(first->SaveCheckpoint(path).ok());
    }
    ASSERT_GT(inflight_at_save, 0) << "test must interrupt mid-buffer";

    std::unique_ptr<FlAlgorithm> resumed = MakeAlgorithm(name, config);
    ASSERT_TRUE(resumed->LoadCheckpoint(path).ok());
    EXPECT_EQ(resumed->completed_rounds(), 3);
    EXPECT_EQ(resumed->inflight_dispatches(), inflight_at_save);
    resumed->Run(6, /*eval_every=*/1);

    ExpectBitIdentical(full->GlobalParams(), resumed->GlobalParams());
    EXPECT_EQ(full->virtual_now(), resumed->virtual_now());
    EXPECT_EQ(full->model_version(), resumed->model_version());
    EXPECT_EQ(full->inflight_dispatches(), resumed->inflight_dispatches());
    EXPECT_EQ(full->fault_stats().timeouts, resumed->fault_stats().timeouts);
    EXPECT_EQ(full->fault_stats().retries, resumed->fault_stats().retries);
    EXPECT_EQ(full->comm().total_wasted_bytes(),
              resumed->comm().total_wasted_bytes());
    EXPECT_EQ(full->comm().total_upload_bytes(),
              resumed->comm().total_upload_bytes());
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace fedcross::fl
