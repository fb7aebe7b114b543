// Fault injection, upload screening, robust aggregation, and checkpoint
// resume. The invariants under test:
//   * fault draws live on their own RNG stream, so a profile that never
//     fires is bit-identical to no profile at all, and one client's fault
//     cannot perturb the survivors;
//   * screening rejects mangled uploads in every algorithm, degrading them
//     exactly like dropouts (the global model stays finite);
//   * the robust aggregators match hand-computed values;
//   * save -> kill -> load -> resume is bit-identical to an uninterrupted
//     run for every algorithm, sync and async, under every codec family,
//     with DP, masking and dropout on;
//   * the checkpoint is one format sealed by a CRC-32: any flipped bit, a
//     file of another version, and every crafted out-of-range field are
//     InvalidArgument, and thousands of random mutations fail cleanly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "comm/wire.h"
#include "core/fedcross.h"
#include "fl/aggregators.h"
#include "fl/algorithm.h"
#include "fl/checkpoint.h"
#include "fl/clusamp.h"
#include "fl/faults.h"
#include "fl/fedavg.h"
#include "fl/fedcluster.h"
#include "fl/fedgen.h"
#include "fl/scaffold.h"
#include "nn/linear.h"
#include "util/rng.h"

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

bool AllFinite(const FlatParams& params) {
  for (float x : params) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

// Minimal concrete FlAlgorithm exposing the protected training fan-out, so
// tests can inspect per-slot results directly.
class ProbeAlgorithm : public FlAlgorithm {
 public:
  ProbeAlgorithm(AlgorithmConfig config, data::FederatedDataset data,
                 models::ModelFactory factory)
      : FlAlgorithm("Probe", config, std::move(data), std::move(factory)) {}

  void RunRound(int round) override { (void)round; }
  FlatParams GlobalParams() override { return InitialParams(); }

  using FlAlgorithm::ClientJob;
  using FlAlgorithm::InitialParams;
  using FlAlgorithm::TrainClients;
};

// --------------------------------------------------------------------------
// Fault stream and fault model
// --------------------------------------------------------------------------

TEST(FaultStreamTest, SeedIsDeterministicAndArgumentSensitive) {
  std::uint64_t base = FaultSeed(17, 3, 0, 2);
  EXPECT_EQ(base, FaultSeed(17, 3, 0, 2));
  EXPECT_NE(base, FaultSeed(18, 3, 0, 2));
  EXPECT_NE(base, FaultSeed(17, 4, 0, 2));
  EXPECT_NE(base, FaultSeed(17, 3, 1, 2));
  EXPECT_NE(base, FaultSeed(17, 3, 0, 3));
}

TEST(FaultStreamTest, InactiveProfileDrawsNothing) {
  // A profile with all probabilities at zero must not consume a single
  // draw, so the stream state is untouched.
  FaultProfile profile;
  util::Rng rng(99);
  util::Rng untouched(99);
  FaultDecision decision = DrawFaults(profile, /*round_deadline=*/5.0, rng);
  EXPECT_FALSE(decision.dropped);
  EXPECT_FALSE(decision.timed_out);
  EXPECT_FALSE(decision.corrupt);
  EXPECT_EQ(rng.Uniform(), untouched.Uniform());
}

TEST(FaultStreamTest, NeverFiringProfileIsBitIdenticalToDisabled) {
  // straggler_prob > 0 with no deadline consumes fault-stream draws but can
  // never change an outcome. Because those draws come from the dedicated
  // stream, the run must be bit-identical to one with faults disabled: the
  // training stream never observes them.
  AlgorithmConfig clean = ToyConfig();
  FedAvg a(clean, MakeToyFederated(8, 40, 4, 41), LinearFactory(4));
  for (int r = 0; r < 3; ++r) a.RunRound(r);

  AlgorithmConfig harmless = ToyConfig();
  harmless.faults.profile.straggler_prob = 0.5;
  harmless.faults.round_deadline = 0.0;  // deadline off: stragglers finish
  FedAvg b(harmless, MakeToyFederated(8, 40, 4, 41), LinearFactory(4));
  for (int r = 0; r < 3; ++r) b.RunRound(r);

  ExpectBitIdentical(a.GlobalParams(), b.GlobalParams());
  EXPECT_EQ(b.fault_stats().dropouts, 0);
  EXPECT_EQ(b.fault_stats().stragglers, 0);
}

TEST(FaultStreamTest, OneClientsDropoutDoesNotPerturbSurvivors) {
  auto make_jobs = [](ProbeAlgorithm& probe,
                      std::vector<ProbeAlgorithm::ClientJob>& jobs,
                      const ClientTrainSpec& spec) {
    jobs.resize(4);
    for (int i = 0; i < 4; ++i) {
      jobs[i] = {i, &probe.InitialParams(), &spec};
    }
  };

  ClientTrainSpec spec;
  spec.options = ToyConfig().train;

  ProbeAlgorithm clean(ToyConfig(), MakeToyFederated(8, 40, 4, 41),
                       LinearFactory(4));
  std::vector<ProbeAlgorithm::ClientJob> jobs;
  make_jobs(clean, jobs, spec);
  std::vector<FlatParams> baseline;
  for (const LocalTrainResult& r : clean.TrainClients(0, 0, jobs)) {
    baseline.push_back(r.params);
  }

  AlgorithmConfig faulty = ToyConfig();
  faulty.faults.overrides[1].dropout_prob = 1.0;  // only client 1 fails
  ProbeAlgorithm probe(faulty, MakeToyFederated(8, 40, 4, 41),
                       LinearFactory(4));
  make_jobs(probe, jobs, spec);
  const std::vector<LocalTrainResult>& results = probe.TrainClients(0, 0, jobs);

  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[1].dropped);
  EXPECT_EQ(results[1].fault, FaultKind::kDropout);
  // The dropped slot echoes the dispatched model.
  ExpectBitIdentical(results[1].params, probe.InitialParams());
  // Every surviving client trained exactly as in the clean run.
  for (int i : {0, 2, 3}) {
    EXPECT_FALSE(results[i].dropped);
    ExpectBitIdentical(results[i].params, baseline[i]);
  }
}

TEST(FaultModelTest, StragglersMissTheDeadline) {
  AlgorithmConfig config = ToyConfig();
  config.faults.profile.straggler_prob = 1.0;
  config.faults.profile.slowdown_min = 10.0;
  config.faults.profile.slowdown_max = 10.0;
  config.faults.round_deadline = 5.0;
  FedAvg fedavg(config, MakeToyFederated(8, 40, 4, 41), LinearFactory(4));
  FlatParams before = fedavg.GlobalParams();
  fedavg.RunRound(0);
  // Every client timed out, so the round aggregated nothing.
  EXPECT_EQ(fedavg.fault_stats().stragglers, 4);
  ExpectBitIdentical(fedavg.GlobalParams(), before);
}

TEST(FaultModelTest, OverProvisionDispatchesExtraClients) {
  AlgorithmConfig config = ToyConfig();
  config.faults.over_provision = 2;
  FedAvg fedavg(config, MakeToyFederated(8, 40, 4, 41), LinearFactory(4));
  fedavg.RunRound(0);
  double per_model = CommTracker::FloatBytes(fedavg.model_size());
  // K + over_provision = 6 dispatches (and, fault-free, 6 uploads).
  EXPECT_EQ(fedavg.comm().total_download_bytes(), 6 * per_model);
  EXPECT_EQ(fedavg.comm().total_upload_bytes(), 6 * per_model);
}

TEST(FaultModelTest, ParseRoundTrips) {
  for (CorruptionKind kind :
       {CorruptionKind::kNanInject, CorruptionKind::kInfInject,
        CorruptionKind::kExplodingNorm, CorruptionKind::kSignFlip}) {
    util::StatusOr<CorruptionKind> parsed =
        ParseCorruptionKind(CorruptionKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), kind);
  }
  EXPECT_FALSE(ParseCorruptionKind("gamma-ray").ok());

  for (AggregatorKind kind :
       {AggregatorKind::kWeightedMean, AggregatorKind::kTrimmedMean,
        AggregatorKind::kCoordinateMedian, AggregatorKind::kNormClippedMean}) {
    util::StatusOr<AggregatorKind> parsed =
        ParseAggregatorKind(AggregatorKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), kind);
  }
  EXPECT_FALSE(ParseAggregatorKind("krum").ok());
}

// --------------------------------------------------------------------------
// Corruption and screening
// --------------------------------------------------------------------------

TEST(ScreeningTest, CorruptUploadMatchesItsDefinition) {
  FaultProfile profile;
  profile.corruption = CorruptionKind::kSignFlip;
  profile.corruption_scale = 2.0f;
  FlatParams reference = {1.0f, -1.0f, 0.5f};
  FlatParams params = {2.0f, 0.0f, 0.5f};
  util::Rng rng(7);
  CorruptUpload(profile, reference, params, rng);
  // ref - scale * (p - ref)
  EXPECT_FLOAT_EQ(params[0], 1.0f - 2.0f * 1.0f);
  EXPECT_FLOAT_EQ(params[1], -1.0f - 2.0f * 1.0f);
  EXPECT_FLOAT_EQ(params[2], 0.5f);

  profile.corruption = CorruptionKind::kExplodingNorm;
  params = {2.0f, 0.0f, 0.5f};
  CorruptUpload(profile, reference, params, rng);
  EXPECT_FLOAT_EQ(params[0], 1.0f + 2.0f * 1.0f);
  EXPECT_FLOAT_EQ(params[1], -1.0f + 2.0f * 1.0f);
  EXPECT_FLOAT_EQ(params[2], 0.5f);

  profile.corruption = CorruptionKind::kNanInject;
  profile.corrupt_coords = 2;
  params = {2.0f, 0.0f, 0.5f};
  CorruptUpload(profile, reference, params, rng);
  EXPECT_FALSE(AllFinite(params));
}

TEST(ScreeningTest, GateCatchesNonFiniteAndExplodingUploads) {
  ScreeningOptions options;
  options.check_finite = true;
  options.max_update_norm = 5.0f;
  FlatParams reference = {0.0f, 0.0f};

  EXPECT_TRUE(ScreenUpload(reference, {1.0f, 1.0f}, options).ok());

  util::Status nan_verdict = ScreenUpload(
      reference, {std::nanf(""), 1.0f}, options);
  EXPECT_EQ(nan_verdict.code(), util::StatusCode::kInvalidArgument);

  util::Status big_verdict = ScreenUpload(reference, {30.0f, 40.0f}, options);
  EXPECT_EQ(big_verdict.code(), util::StatusCode::kOutOfRange);

  util::Status size_verdict = ScreenUpload(reference, {1.0f}, options);
  EXPECT_EQ(size_verdict.code(), util::StatusCode::kInvalidArgument);

  // The norm gate alone must also stop NaN uploads (NaN fails any
  // comparison, so the gate uses !(norm <= gate)).
  ScreeningOptions norm_only;
  norm_only.max_update_norm = 5.0f;
  EXPECT_FALSE(ScreenUpload(reference, {std::nanf(""), 1.0f}, norm_only).ok());
}

TEST(ScreeningTest, WithoutScreeningNanUploadsPoisonTheGlobalModel) {
  AlgorithmConfig config = ToyConfig();
  config.faults.profile.corrupt_prob = 1.0;
  config.faults.profile.corruption = CorruptionKind::kNanInject;
  FedAvg fedavg(config, MakeToyFederated(8, 40, 4, 41), LinearFactory(4));
  fedavg.RunRound(0);
  EXPECT_FALSE(AllFinite(fedavg.GlobalParams()));
}

TEST(ScreeningTest, EveryAlgorithmRejectsNanUploads) {
  for (const char* name : kAllAlgorithms) {
    AlgorithmConfig config = ToyConfig();
    config.faults.profile.corrupt_prob = 1.0;
    config.faults.profile.corruption = CorruptionKind::kNanInject;
    config.screening.check_finite = true;
    std::unique_ptr<FlAlgorithm> algo = MakeAlgorithm(name, config);
    for (int r = 0; r < 2; ++r) algo->RunRound(r);
    EXPECT_GT(algo->fault_stats().rejected, 0) << name;
    EXPECT_EQ(algo->fault_stats().corrupted, algo->fault_stats().rejected)
        << name;
    EXPECT_TRUE(AllFinite(algo->GlobalParams())) << name;
  }
}

TEST(ScreeningTest, EveryAlgorithmRejectsExplodingUploads) {
  for (const char* name : kAllAlgorithms) {
    AlgorithmConfig config = ToyConfig();
    config.faults.profile.corrupt_prob = 1.0;
    config.faults.profile.corruption = CorruptionKind::kExplodingNorm;
    config.faults.profile.corruption_scale = 1e6f;
    config.screening.max_update_norm = 10.0f;
    std::unique_ptr<FlAlgorithm> algo = MakeAlgorithm(name, config);
    for (int r = 0; r < 2; ++r) algo->RunRound(r);
    EXPECT_GT(algo->fault_stats().rejected, 0) << name;
    EXPECT_TRUE(AllFinite(algo->GlobalParams())) << name;
  }
}

// --------------------------------------------------------------------------
// Robust aggregators
// --------------------------------------------------------------------------

TEST(AggregatorTest, TrimmedMeanDropsTheTails) {
  FlatParams a = {1.0f, -100.0f};
  FlatParams b = {2.0f, 1.0f};
  FlatParams c = {3.0f, 2.0f};
  FlatParams d = {100.0f, 3.0f};
  std::vector<const FlatParams*> models = {&a, &b, &c, &d};
  FlatParams column;
  FlatParams out;
  TrimmedMeanInto(models, /*trim_ratio=*/0.25, column, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_FLOAT_EQ(out[0], 2.5f);  // mean of {2, 3}
  EXPECT_FLOAT_EQ(out[1], 1.5f);  // mean of {1, 2}
}

TEST(AggregatorTest, TrimmedMeanKeepsAtLeastOneValue) {
  // n = 2 with trim_ratio 0.4 would trim 0 from each side (floor(0.8) = 0);
  // n = 3 with 0.45 trims one, leaving the median.
  FlatParams a = {0.0f};
  FlatParams b = {10.0f};
  FlatParams c = {1.0f};
  std::vector<const FlatParams*> models = {&a, &b, &c};
  FlatParams column;
  FlatParams out;
  TrimmedMeanInto(models, /*trim_ratio=*/0.45, column, out);
  EXPECT_FLOAT_EQ(out[0], 1.0f);
}

TEST(AggregatorTest, CoordinateMedianOddAndEven) {
  FlatParams a = {1.0f, 4.0f};
  FlatParams b = {5.0f, 1.0f};
  FlatParams c = {100.0f, 2.0f};
  std::vector<const FlatParams*> odd = {&a, &b, &c};
  FlatParams column;
  FlatParams out;
  CoordinateMedianInto(odd, column, out);
  EXPECT_FLOAT_EQ(out[0], 5.0f);
  EXPECT_FLOAT_EQ(out[1], 2.0f);

  FlatParams d = {2.0f, 3.0f};
  std::vector<const FlatParams*> even = {&a, &b, &c, &d};
  CoordinateMedianInto(even, column, out);
  EXPECT_FLOAT_EQ(out[0], 3.5f);  // mean of {2, 5}
  EXPECT_FLOAT_EQ(out[1], 2.5f);  // mean of {2, 3}
}

TEST(AggregatorTest, NormClippedMeanClipsLargeUpdates) {
  FlatParams reference = {0.0f, 0.0f};
  FlatParams small = {3.0f, 4.0f};   // norm 5: untouched
  FlatParams large = {6.0f, 8.0f};   // norm 10: clipped to {3, 4}
  std::vector<const FlatParams*> models = {&small, &large};
  std::vector<double> weights = {1.0, 1.0};
  FlatParams scratch;
  FlatParams out;
  NormClippedWeightedAverageInto(models, weights, reference, /*clip_norm=*/5.0f,
                                 scratch, out);
  EXPECT_FLOAT_EQ(out[0], 3.0f);
  EXPECT_FLOAT_EQ(out[1], 4.0f);
}

TEST(AggregatorTest, NormClippedMeanIsAliasSafe) {
  FlatParams reference = {1.0f, 2.0f};
  FlatParams m = {2.0f, 2.0f};
  std::vector<const FlatParams*> models = {&m};
  std::vector<double> weights = {1.0};
  FlatParams scratch;
  // out aliases reference: the clipping centre must be read before the
  // output is written.
  NormClippedWeightedAverageInto(models, weights, reference, /*clip_norm=*/5.0f,
                                 scratch, reference);
  EXPECT_FLOAT_EQ(reference[0], 2.0f);
  EXPECT_FLOAT_EQ(reference[1], 2.0f);
}

TEST(AggregatorTest, ByzantineClientCannotMoveTheMedian) {
  // One sign-flipping client among four under the coordinate median: the
  // model stays finite and close to the honest aggregate.
  AlgorithmConfig config = ToyConfig();
  config.faults.overrides[0].corrupt_prob = 1.0;
  config.faults.overrides[0].corruption = CorruptionKind::kSignFlip;
  config.faults.overrides[0].corruption_scale = 1e4f;
  config.aggregator.kind = AggregatorKind::kCoordinateMedian;
  FedAvg fedavg(config, MakeToyFederated(8, 40, 4, 41), LinearFactory(4));
  for (int r = 0; r < 3; ++r) fedavg.RunRound(r);
  FlatParams params = fedavg.GlobalParams();
  ASSERT_TRUE(AllFinite(params));
  for (float x : params) EXPECT_LT(std::fabs(x), 100.0f);
}

// --------------------------------------------------------------------------
// Checkpoint serialisation primitives
// --------------------------------------------------------------------------

TEST(StateSerializationTest, PrimitivesRoundTrip) {
  StateWriter writer;
  writer.WriteU32(0xdeadbeefu);
  writer.WriteU64(0x0123456789abcdefULL);
  writer.WriteI64(-42);
  writer.WriteF32(1.5f);
  writer.WriteF64(-2.25);
  writer.WriteBool(true);
  writer.WriteFloats({1.0f, -2.0f, 3.0f});
  writer.WriteInts({-1, 0, 7});
  writer.WriteDoubles({0.5, -0.25});

  StateReader reader(writer.bytes());
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  std::int64_t i64 = 0;
  float f32 = 0.0f;
  double f64 = 0.0;
  bool flag = false;
  FlatParams floats;
  std::vector<int> ints;
  std::vector<double> doubles;
  ASSERT_TRUE(reader.ReadU32(u32).ok());
  ASSERT_TRUE(reader.ReadU64(u64).ok());
  ASSERT_TRUE(reader.ReadI64(i64).ok());
  ASSERT_TRUE(reader.ReadF32(f32).ok());
  ASSERT_TRUE(reader.ReadF64(f64).ok());
  ASSERT_TRUE(reader.ReadBool(flag).ok());
  ASSERT_TRUE(reader.ReadFloats(floats).ok());
  ASSERT_TRUE(reader.ReadInts(ints).ok());
  ASSERT_TRUE(reader.ReadDoubles(doubles).ok());
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(f32, 1.5f);
  EXPECT_EQ(f64, -2.25);
  EXPECT_TRUE(flag);
  EXPECT_EQ(floats, FlatParams({1.0f, -2.0f, 3.0f}));
  EXPECT_EQ(ints, std::vector<int>({-1, 0, 7}));
  EXPECT_EQ(doubles, std::vector<double>({0.5, -0.25}));
  EXPECT_TRUE(reader.AtEnd());
  // Reading past the end is a clean error, not UB.
  EXPECT_EQ(reader.ReadU32(u32).code(), util::StatusCode::kInvalidArgument);
}

TEST(StateSerializationTest, CorruptLengthPrefixIsRejected) {
  StateWriter writer;
  writer.WriteU64(~0ULL);  // a float vector claiming 2^64-1 elements
  StateReader reader(writer.bytes());
  FlatParams floats;
  EXPECT_EQ(reader.ReadFloats(floats).code(),
            util::StatusCode::kInvalidArgument);
}

TEST(StateSerializationTest, StateFileRoundTripAndValidation) {
  const std::string path = "robustness_state_file_test.bin";
  StateWriter writer;
  writer.WriteU64(1234);
  ASSERT_TRUE(WriteStateFile(path, writer).ok());

  util::StatusOr<StateReader> reader = ReadStateFile(path);
  ASSERT_TRUE(reader.ok());
  std::uint64_t value = 0;
  ASSERT_TRUE(reader.value().ReadU64(value).ok());
  EXPECT_EQ(value, 1234u);

  EXPECT_EQ(ReadStateFile("no_such_checkpoint.bin").status().code(),
            util::StatusCode::kNotFound);

  {
    std::ofstream garbage(path, std::ios::binary | std::ios::trunc);
    garbage << "not a checkpoint";
  }
  EXPECT_EQ(ReadStateFile(path).status().code(),
            util::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// --------------------------------------------------------------------------
// Full checkpoint / resume
// --------------------------------------------------------------------------

void ExpectSameHistory(const MetricsHistory& a, const MetricsHistory& b) {
  ASSERT_EQ(a.records().size(), b.records().size());
  for (std::size_t i = 0; i < a.records().size(); ++i) {
    const RoundRecord& x = a.records()[i];
    const RoundRecord& y = b.records()[i];
    EXPECT_EQ(x.round, y.round);
    EXPECT_EQ(x.test_loss, y.test_loss);
    EXPECT_EQ(x.test_accuracy, y.test_accuracy);
    EXPECT_EQ(x.bytes_up, y.bytes_up);
    EXPECT_EQ(x.bytes_down, y.bytes_down);
    EXPECT_EQ(x.mean_client_loss, y.mean_client_loss);
  }
}

std::vector<std::uint8_t> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(in.good()) << path;
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

// Writes a fresh file rather than truncating the old one: on ext4 a
// truncate-and-rewrite is flushed on close (~0.4 ms against ~25 us), and
// the fuzz below writes thousands of files.
void WriteBytes(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::remove(path.c_str());
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// The resume grid's configuration: DP noise, secure-aggregation masking and
// client dropout always on. Async runs a buffer below K on a
// straggler-prone clock with a dispatch timeout and one retry, so the save
// lands with uploads still in flight.
AlgorithmConfig ResumeGridConfig(const std::string& name, bool async,
                                 comm::Scheme scheme) {
  AlgorithmConfig config = ToyConfig();
  config.dp.clip_norm = 1.0f;
  config.dp.noise_multiplier = 1.1f;
  config.secure_agg.enabled = true;
  config.faults.profile.dropout_prob = 0.2;
  config.codec.scheme = scheme;
  if (scheme != comm::Scheme::kIdentity) config.codec.topk_fraction = 0.25;
  if (async) {
    config.async.mode = RoundMode::kAsync;
    // FedCluster dispatches ceil(K / clusters) = 2 clients per step: only a
    // buffer of 1 leaves one of them in flight.
    config.async.buffer_size = name == "FedCluster" ? 1 : 3;
    config.async.dispatch_timeout = 0.5;
    config.async.max_retries = 1;
    config.async.clock.compute_speed_min = 25.0;
    config.async.clock.compute_speed_max = 400.0;
    config.async.clock.bandwidth_min = 1e6;
    config.async.clock.bandwidth_max = 1e9;
    config.async.clock.jitter = 0.1;
    config.faults.profile.straggler_prob = 0.4;
  }
  return config;
}

// Everything a resumed run must reproduce of the uninterrupted one.
void ExpectSameRun(FlAlgorithm& a, FlAlgorithm& b) {
  ExpectBitIdentical(a.GlobalParams(), b.GlobalParams());
  ExpectSameHistory(a.history(), b.history());
  EXPECT_EQ(a.comm().total_download_bytes(), b.comm().total_download_bytes());
  EXPECT_EQ(a.comm().total_upload_bytes(), b.comm().total_upload_bytes());
  EXPECT_EQ(a.comm().total_wire_download_bytes(),
            b.comm().total_wire_download_bytes());
  EXPECT_EQ(a.comm().total_wire_upload_bytes(),
            b.comm().total_wire_upload_bytes());
  EXPECT_EQ(a.comm().total_wasted_bytes(), b.comm().total_wasted_bytes());
  EXPECT_EQ(a.comm().total_wire_wasted_bytes(),
            b.comm().total_wire_wasted_bytes());
  EXPECT_EQ(a.fault_stats().dropouts, b.fault_stats().dropouts);
  EXPECT_EQ(a.fault_stats().stragglers, b.fault_stats().stragglers);
  EXPECT_EQ(a.fault_stats().corrupted, b.fault_stats().corrupted);
  EXPECT_EQ(a.fault_stats().rejected, b.fault_stats().rejected);
  EXPECT_EQ(a.fault_stats().timeouts, b.fault_stats().timeouts);
  EXPECT_EQ(a.fault_stats().retries, b.fault_stats().retries);
  EXPECT_EQ(a.privacy_stats().clipped, b.privacy_stats().clipped);
  EXPECT_EQ(a.privacy_stats().mask_pairs, b.privacy_stats().mask_pairs);
  EXPECT_EQ(a.privacy_stats().mask_recoveries,
            b.privacy_stats().mask_recoveries);
  EXPECT_EQ(a.virtual_now(), b.virtual_now());
  EXPECT_EQ(a.model_version(), b.model_version());
  EXPECT_EQ(a.inflight_dispatches(), b.inflight_dispatches());
  EXPECT_EQ(a.privacy_epsilon(), b.privacy_epsilon());
}

TEST(CheckpointTest, ResumeIsBitIdenticalForEveryAlgorithm) {
  const std::string path = ::testing::TempDir() + "/robustness_ckpt_grid.bin";
  const std::string resaved = path + ".resaved";
  for (const char* name : kAllAlgorithms) {
    for (bool async : {false, true}) {
      for (comm::Scheme scheme :
           {comm::Scheme::kIdentity, comm::Scheme::kInt8TopK}) {
        SCOPED_TRACE(std::string(name) + (async ? " async " : " sync ") +
                     comm::SchemeName(scheme));
        AlgorithmConfig config = ResumeGridConfig(name, async, scheme);

        // Uninterrupted reference run.
        std::unique_ptr<FlAlgorithm> full = MakeAlgorithm(name, config);
        full->Run(5, /*eval_every=*/1);

        // Run 3 rounds, checkpoint, "kill" the process (drop the instance).
        {
          std::unique_ptr<FlAlgorithm> first = MakeAlgorithm(name, config);
          first->Run(3, /*eval_every=*/1);
          if (async) {
            ASSERT_GT(first->inflight_dispatches(), 0)
                << "the save must land mid-buffer";
          }
          ASSERT_TRUE(first->SaveCheckpoint(path).ok());
        }

        // Restore into a fresh instance; saving it again reproduces the
        // file byte for byte. Then finish the run.
        std::unique_ptr<FlAlgorithm> resumed = MakeAlgorithm(name, config);
        ASSERT_TRUE(resumed->LoadCheckpoint(path).ok());
        EXPECT_EQ(resumed->completed_rounds(), 3);
        ASSERT_TRUE(resumed->SaveCheckpoint(resaved).ok());
        EXPECT_EQ(ReadBytes(path), ReadBytes(resaved));
        resumed->Run(5, /*eval_every=*/1);

        EXPECT_EQ(resumed->completed_rounds(), 5);
        ExpectSameRun(*full, *resumed);
      }
    }
  }
  std::remove(path.c_str());
  std::remove(resaved.c_str());
}

TEST(CheckpointTest, ResumeUnderFaultsIsBitIdentical) {
  // Checkpointing must also capture the fault accounting mid-run.
  const std::string path = "robustness_ckpt_faulty.bin";
  AlgorithmConfig config = ToyConfig();
  config.faults.profile.dropout_prob = 0.2;
  config.faults.profile.corrupt_prob = 0.3;
  config.faults.profile.corruption = CorruptionKind::kExplodingNorm;
  config.screening.max_update_norm = 25.0f;
  config.aggregator.kind = AggregatorKind::kNormClippedMean;
  config.aggregator.clip_norm = 5.0f;

  std::unique_ptr<FlAlgorithm> full = MakeAlgorithm("FedAvg", config);
  full->Run(6, /*eval_every=*/1);

  {
    std::unique_ptr<FlAlgorithm> first = MakeAlgorithm("FedAvg", config);
    first->Run(2, /*eval_every=*/1);
    ASSERT_TRUE(first->SaveCheckpoint(path).ok());
  }
  std::unique_ptr<FlAlgorithm> resumed = MakeAlgorithm("FedAvg", config);
  ASSERT_TRUE(resumed->LoadCheckpoint(path).ok());
  resumed->Run(6, /*eval_every=*/1);

  ExpectBitIdentical(full->GlobalParams(), resumed->GlobalParams());
  ExpectSameHistory(full->history(), resumed->history());
  EXPECT_EQ(full->fault_stats().dropouts, resumed->fault_stats().dropouts);
  EXPECT_EQ(full->fault_stats().corrupted, resumed->fault_stats().corrupted);
  EXPECT_EQ(full->fault_stats().rejected, resumed->fault_stats().rejected);
  std::remove(path.c_str());
}

TEST(CheckpointTest, AutoCheckpointSavesDuringRun) {
  const std::string path = "robustness_ckpt_auto.bin";
  {
    std::unique_ptr<FlAlgorithm> algo = MakeAlgorithm("FedAvg", ToyConfig());
    algo->EnableAutoCheckpoint(path, /*every_rounds=*/2);
    algo->Run(5, /*eval_every=*/1);
  }
  std::unique_ptr<FlAlgorithm> restored = MakeAlgorithm("FedAvg", ToyConfig());
  ASSERT_TRUE(restored->LoadCheckpoint(path).ok());
  // The final round always checkpoints, even off the every_rounds grid.
  EXPECT_EQ(restored->completed_rounds(), 5);
  // Resuming a finished run is a no-op.
  std::size_t records = restored->history().records().size();
  restored->Run(5, /*eval_every=*/1);
  EXPECT_EQ(restored->history().records().size(), records);
  std::remove(path.c_str());
}

TEST(CheckpointTest, MismatchedConfigurationIsRejected) {
  const std::string path = "robustness_ckpt_mismatch.bin";
  {
    std::unique_ptr<FlAlgorithm> algo = MakeAlgorithm("FedAvg", ToyConfig());
    algo->Run(2, /*eval_every=*/1);
    ASSERT_TRUE(algo->SaveCheckpoint(path).ok());
  }
  // Different seed.
  AlgorithmConfig other_seed = ToyConfig();
  other_seed.seed = 18;
  std::unique_ptr<FlAlgorithm> wrong_seed = MakeAlgorithm("FedAvg", other_seed);
  EXPECT_EQ(wrong_seed->LoadCheckpoint(path).code(),
            util::StatusCode::kFailedPrecondition);
  // Different algorithm.
  std::unique_ptr<FlAlgorithm> wrong_algo =
      MakeAlgorithm("SCAFFOLD", ToyConfig());
  EXPECT_EQ(wrong_algo->LoadCheckpoint(path).code(),
            util::StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(CheckpointTest, TruncatedCheckpointIsRejected) {
  const std::string path = "robustness_ckpt_truncated.bin";
  {
    std::unique_ptr<FlAlgorithm> algo = MakeAlgorithm("FedAvg", ToyConfig());
    algo->Run(2, /*eval_every=*/1);
    ASSERT_TRUE(algo->SaveCheckpoint(path).ok());
  }
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  ASSERT_TRUE(in.good());
  std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<char> bytes(static_cast<std::size_t>(size) / 2);
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  std::unique_ptr<FlAlgorithm> algo = MakeAlgorithm("FedAvg", ToyConfig());
  EXPECT_EQ(algo->LoadCheckpoint(path).code(),
            util::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingFileIsNotFound) {
  std::unique_ptr<FlAlgorithm> algo = MakeAlgorithm("FedAvg", ToyConfig());
  EXPECT_EQ(algo->LoadCheckpoint("definitely_missing.bin").code(),
            util::StatusCode::kNotFound);
}

TEST(CheckpointTest, ResumeUnderLossyCodecIsBitIdentical) {
  // The checkpoint carries the per-client error-feedback residuals: a
  // resumed int8_topk run must re-quantise against the same residual state
  // the killed run held, or it diverges from the uninterrupted one.
  const std::string path = "robustness_ckpt_codec.bin";
  AlgorithmConfig config = ToyConfig();
  config.codec.scheme = comm::Scheme::kInt8TopK;
  config.codec.topk_fraction = 0.25;

  std::unique_ptr<FlAlgorithm> full = MakeAlgorithm("FedCross", config);
  full->Run(6, /*eval_every=*/1);

  {
    std::unique_ptr<FlAlgorithm> first = MakeAlgorithm("FedCross", config);
    first->Run(3, /*eval_every=*/1);
    ASSERT_TRUE(first->SaveCheckpoint(path).ok());
  }
  std::unique_ptr<FlAlgorithm> resumed = MakeAlgorithm("FedCross", config);
  ASSERT_TRUE(resumed->LoadCheckpoint(path).ok());
  resumed->Run(6, /*eval_every=*/1);

  ExpectBitIdentical(full->GlobalParams(), resumed->GlobalParams());
  ExpectSameHistory(full->history(), resumed->history());
  EXPECT_EQ(full->comm().total_wire_upload_bytes(),
            resumed->comm().total_wire_upload_bytes());
  std::remove(path.c_str());
}

TEST(CheckpointTest, CodecConfigPerturbsTheFingerprint) {
  // A checkpoint from a lossy-codec run must not resume into an uncoded
  // configuration (or vice versa): the residual state only makes sense
  // under the codec that produced it.
  const std::string path = "robustness_ckpt_codec_fp.bin";
  AlgorithmConfig coded = ToyConfig();
  coded.codec.scheme = comm::Scheme::kInt8;
  {
    std::unique_ptr<FlAlgorithm> algo = MakeAlgorithm("FedAvg", coded);
    algo->Run(1, /*eval_every=*/1);
    ASSERT_TRUE(algo->SaveCheckpoint(path).ok());
  }
  std::unique_ptr<FlAlgorithm> uncoded =
      MakeAlgorithm("FedAvg", ToyConfig());
  EXPECT_EQ(uncoded->LoadCheckpoint(path).code(),
            util::StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

// --------------------------------------------------------------------------
// Checkpoint integrity: one format, sealed by a CRC-32
// --------------------------------------------------------------------------

// Byte offsets into a checkpoint file, from the layout
// FlAlgorithm::SaveCheckpoint writes: the 8-byte header (magic, version),
// then the fingerprint, round counter, RNG state (four words, a bool, a
// double), six comm totals and six fault tallies before the history count.
constexpr std::size_t kHeaderBytes = 8;
constexpr std::size_t kHistoryCountAt =
    kHeaderBytes + 8 + 8 + 4 * 8 + 1 + 8 + 6 * 8 + 6 * 8;
constexpr std::size_t kHistoryRecordBytes = 40;

std::uint64_t LoadU64(const std::vector<std::uint8_t>& bytes, std::size_t at) {
  std::uint64_t value = 0;
  std::memcpy(&value, bytes.data() + at, sizeof(value));
  return value;
}

template <typename T>
void Store(std::vector<std::uint8_t>& bytes, std::size_t at, T value) {
  std::memcpy(bytes.data() + at, &value, sizeof(value));
}

// Recomputes the trailing CRC-32, so a patched body reaches the loader's
// structural checks instead of tripping the CRC gate.
void Reseal(std::vector<std::uint8_t>& bytes) {
  const std::size_t sealed = bytes.size() - 4;
  Store(bytes, sealed, comm::Crc32({bytes.data(), sealed}));
}

// Offset of the length prefix of the one float vector in `bytes` holding
// exactly `values`: subclass state is located by content.
std::size_t FindFloats(const std::vector<std::uint8_t>& bytes,
                       const FlatParams& values) {
  StateWriter encoded;
  encoded.WriteFloats(values);
  const std::vector<std::uint8_t>& pattern = encoded.bytes();
  auto hit = std::search(bytes.begin(), bytes.end(), pattern.begin(),
                         pattern.end());
  EXPECT_NE(hit, bytes.end()) << "vector not found";
  if (hit == bytes.end()) return 0;
  EXPECT_EQ(std::search(hit + 1, bytes.end(), pattern.begin(), pattern.end()),
            bytes.end())
      << "vector found twice";
  return static_cast<std::size_t>(hit - bytes.begin());
}

// Drops the last element of the length-prefixed vector at `at`, keeping
// the file well formed: only the vector's own size check can catch it.
void ShrinkVector(std::vector<std::uint8_t>& bytes, std::size_t at,
                  std::size_t element_bytes) {
  const std::uint64_t count = LoadU64(bytes, at);
  ASSERT_GT(count, 0u);
  Store(bytes, at, count - 1);
  auto last = bytes.begin() +
              static_cast<std::ptrdiff_t>(at + 8 + (count - 1) * element_bytes);
  bytes.erase(last, last + static_cast<std::ptrdiff_t>(element_bytes));
}

// Length prefix of the vector right after the one at `at`.
std::size_t NextVector(const std::vector<std::uint8_t>& bytes, std::size_t at,
                       std::size_t element_bytes) {
  return at + 8 + LoadU64(bytes, at) * element_bytes;
}

using Patch = std::function<void(std::vector<std::uint8_t>&, FlAlgorithm&)>;

// Saves `name` after `rounds` rounds, applies `patch` to the file, reseals
// it and returns what a fresh instance's LoadCheckpoint makes of it.
util::Status LoadPatched(const std::string& name,
                         const AlgorithmConfig& config, int rounds,
                         const Patch& patch) {
  const std::string path = ::testing::TempDir() + "/robustness_crafted.bin";
  std::unique_ptr<FlAlgorithm> writer = MakeAlgorithm(name, config);
  writer->Run(rounds, /*eval_every=*/1);
  EXPECT_TRUE(writer->SaveCheckpoint(path).ok());
  std::vector<std::uint8_t> bytes = ReadBytes(path);
  patch(bytes, *writer);
  Reseal(bytes);
  WriteBytes(path, bytes);
  util::Status status = MakeAlgorithm(name, config)->LoadCheckpoint(path);
  std::remove(path.c_str());
  return status;
}

void ExpectRejected(const util::Status& status, const std::string& what) {
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument)
      << status.ToString();
  EXPECT_NE(status.ToString().find(what), std::string::npos)
      << status.ToString();
}

TEST(CheckpointIntegrityTest, EveryFlippedBitIsRejected) {
  const std::string path = ::testing::TempDir() + "/robustness_ckpt_flip.bin";
  {
    std::unique_ptr<FlAlgorithm> algo = MakeAlgorithm("FedAvg", ToyConfig());
    algo->Run(2, /*eval_every=*/1);
    ASSERT_TRUE(algo->SaveCheckpoint(path).ok());
  }
  const std::vector<std::uint8_t> clean = ReadBytes(path);
  std::unique_ptr<FlAlgorithm> reader = MakeAlgorithm("FedAvg", ToyConfig());
  for (std::size_t at = 0; at < clean.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> bytes = clean;
      bytes[at] ^= static_cast<std::uint8_t>(1u << bit);
      WriteBytes(path, bytes);
      util::Status status = reader->LoadCheckpoint(path);
      SCOPED_TRACE("byte " + std::to_string(at) + " bit " +
                   std::to_string(bit));
      // The header names what it is; every later byte is under the CRC.
      ExpectRejected(status, at < 4   ? "not a FedCross"
                             : at < 8 ? "version"
                                      : "CRC-32 mismatch");
    }
  }
  WriteBytes(path, clean);
  EXPECT_TRUE(reader->LoadCheckpoint(path).ok());
  std::remove(path.c_str());
}

TEST(CheckpointIntegrityTest, VersionFiveFileIsRejectedByVersion) {
  // A version-5 file is this body behind a version-5 header, with no CRC
  // trailer.
  const std::string path = ::testing::TempDir() + "/robustness_ckpt_v5.bin";
  {
    std::unique_ptr<FlAlgorithm> algo = MakeAlgorithm("FedAvg", ToyConfig());
    algo->Run(2, /*eval_every=*/1);
    ASSERT_TRUE(algo->SaveCheckpoint(path).ok());
  }
  std::vector<std::uint8_t> bytes = ReadBytes(path);
  bytes.resize(bytes.size() - 4);
  Store(bytes, 4, std::uint32_t{5});
  WriteBytes(path, bytes);
  std::unique_ptr<FlAlgorithm> reader = MakeAlgorithm("FedAvg", ToyConfig());
  ExpectRejected(reader->LoadCheckpoint(path), "version 5");
  std::remove(path.c_str());
}

// --------------------------------------------------------------------------
// Crafted files: every loaded field that later indexes memory is checked
// --------------------------------------------------------------------------

constexpr int kToyModelSize = 4 * 2 + 2;  // Linear(4, 2)

TEST(CheckpointValidationTest, CompletedRoundCounterMustFitAnInt) {
  auto patch = [](std::vector<std::uint8_t>& bytes, FlAlgorithm&) {
    Store(bytes, kHeaderBytes + 8, std::int64_t{1} << 40);
  };
  ExpectRejected(LoadPatched("FedAvg", ToyConfig(), 1, patch),
                 "completed-round counter");
}

TEST(CheckpointValidationTest, ScaffoldGlobalModelMustBeModelSized) {
  auto patch = [](std::vector<std::uint8_t>& bytes, FlAlgorithm& algo) {
    ShrinkVector(bytes, FindFloats(bytes, algo.GlobalParams()),
                 sizeof(float));
  };
  ExpectRejected(LoadPatched("SCAFFOLD", ToyConfig(), 1, patch),
                 "model size");
}

TEST(CheckpointValidationTest, ScaffoldServerVariateMustBeModelSized) {
  auto patch = [](std::vector<std::uint8_t>& bytes, FlAlgorithm& algo) {
    const std::size_t global = FindFloats(bytes, algo.GlobalParams());
    ShrinkVector(bytes, NextVector(bytes, global, sizeof(float)),
                 sizeof(float));
  };
  ExpectRejected(LoadPatched("SCAFFOLD", ToyConfig(), 1, patch),
                 "model size");
}

TEST(CheckpointValidationTest, ScaffoldClientVariateMustBeModelSized) {
  auto patch = [](std::vector<std::uint8_t>& bytes, FlAlgorithm& algo) {
    const std::size_t global = FindFloats(bytes, algo.GlobalParams());
    const std::size_t server = NextVector(bytes, global, sizeof(float));
    const std::size_t table = NextVector(bytes, server, sizeof(float));
    ASSERT_GT(LoadU64(bytes, table), 0u);
    // The count, then the first row's id, then its floats.
    ShrinkVector(bytes, table + 8 + 8, sizeof(float));
  };
  ExpectRejected(LoadPatched("SCAFFOLD", ToyConfig(), 1, patch),
                 "model size");
}

TEST(CheckpointValidationTest, CluSampGlobalModelMustBeModelSized) {
  auto patch = [](std::vector<std::uint8_t>& bytes, FlAlgorithm& algo) {
    ShrinkVector(bytes, FindFloats(bytes, algo.GlobalParams()),
                 sizeof(float));
  };
  ExpectRejected(LoadPatched("CluSamp", ToyConfig(), 1, patch),
                 "model size");
}

TEST(CheckpointValidationTest, CluSampAssignmentMustNameACluster) {
  // An assignment of 1000 would index a K-element cluster table next round.
  auto patch = [](std::vector<std::uint8_t>& bytes, FlAlgorithm& algo) {
    const std::size_t global = FindFloats(bytes, algo.GlobalParams());
    const std::size_t assignment = NextVector(bytes, global, sizeof(float));
    ASSERT_EQ(LoadU64(bytes, assignment), 8u);  // one per client
    for (std::size_t c = 0; c < 8; ++c) {
      Store(bytes, assignment + 8 + 4 * c, std::uint32_t{1000});
    }
  };
  ExpectRejected(LoadPatched("CluSamp", ToyConfig(), 1, patch),
                 "cluster assignment 1000 out of range");
}

TEST(CheckpointValidationTest, CluSampHistoryRowMustBeModelSized) {
  auto patch = [](std::vector<std::uint8_t>& bytes, FlAlgorithm& algo) {
    const std::size_t global = FindFloats(bytes, algo.GlobalParams());
    const std::size_t assignment = NextVector(bytes, global, sizeof(float));
    const std::size_t table =
        NextVector(bytes, assignment, sizeof(std::uint32_t));
    ASSERT_GT(LoadU64(bytes, table), 0u);
    ShrinkVector(bytes, table + 8 + 8, sizeof(float));
  };
  ExpectRejected(LoadPatched("CluSamp", ToyConfig(), 1, patch),
                 "model size");
}

TEST(CheckpointValidationTest, FedClusterGlobalModelMustBeModelSized) {
  auto patch = [](std::vector<std::uint8_t>& bytes, FlAlgorithm& algo) {
    ShrinkVector(bytes, FindFloats(bytes, algo.GlobalParams()),
                 sizeof(float));
  };
  ExpectRejected(LoadPatched("FedCluster", ToyConfig(), 1, patch),
                 "model size");
}

// Offset of FedCluster's first cluster (its member count).
std::size_t FirstClusterAt(const std::vector<std::uint8_t>& bytes,
                           FlAlgorithm& algo) {
  const std::size_t global = FindFloats(bytes, algo.GlobalParams());
  return NextVector(bytes, global, sizeof(float)) + 8;
}

TEST(CheckpointValidationTest, FedClusterMemberMustBeAClient) {
  auto patch = [](std::vector<std::uint8_t>& bytes, FlAlgorithm& algo) {
    const std::size_t cluster = FirstClusterAt(bytes, algo);
    ASSERT_GT(LoadU64(bytes, cluster), 0u);
    Store(bytes, cluster + 8, algo.num_clients());
  };
  ExpectRejected(LoadPatched("FedCluster", ToyConfig(), 1, patch),
                 "cluster member 8 out of range");
}

TEST(CheckpointValidationTest, FedClusterMemberMustBeListedOnce) {
  auto patch = [](std::vector<std::uint8_t>& bytes, FlAlgorithm& algo) {
    const std::size_t first = FirstClusterAt(bytes, algo);
    const std::size_t second = NextVector(bytes, first, sizeof(std::int64_t));
    ASSERT_GT(LoadU64(bytes, second), 0u);
    Store(bytes, second + 8, LoadU64(bytes, first + 8));
  };
  ExpectRejected(LoadPatched("FedCluster", ToyConfig(), 1, patch),
                 "listed twice");
}

TEST(CheckpointValidationTest, FedGenGlobalModelMustBeModelSized) {
  auto patch = [](std::vector<std::uint8_t>& bytes, FlAlgorithm& algo) {
    ShrinkVector(bytes, FindFloats(bytes, algo.GlobalParams()),
                 sizeof(float));
  };
  ExpectRejected(LoadPatched("FedGen", ToyConfig(), 1, patch), "model size");
}

TEST(CheckpointValidationTest, FedGenLabelPriorMustCoverEveryClass) {
  auto patch = [](std::vector<std::uint8_t>& bytes, FlAlgorithm& algo) {
    const std::size_t global = FindFloats(bytes, algo.GlobalParams());
    ShrinkVector(bytes, NextVector(bytes, global, sizeof(float)),
                 sizeof(double));
  };
  ExpectRejected(LoadPatched("FedGen", ToyConfig(), 1, patch),
                 "label prior is not 2 finite non-negative weights");
}

TEST(CheckpointValidationTest, FedGenLabelPriorMustBeNonNegative) {
  auto patch = [](std::vector<std::uint8_t>& bytes, FlAlgorithm& algo) {
    const std::size_t global = FindFloats(bytes, algo.GlobalParams());
    Store(bytes, NextVector(bytes, global, sizeof(float)) + 8, -1.0);
  };
  ExpectRejected(LoadPatched("FedGen", ToyConfig(), 1, patch),
                 "label prior is not 2 finite non-negative weights");
}

TEST(CheckpointValidationTest, FedGenSyntheticLabelMustNameAClass) {
  // The synthetic set's labels close the body, right before the CRC.
  auto patch = [](std::vector<std::uint8_t>& bytes, FlAlgorithm&) {
    Store(bytes, bytes.size() - 4 - 4, std::uint32_t{2});
  };
  ExpectRejected(LoadPatched("FedGen", ToyConfig(), 1, patch),
                 "synthetic label out of range");
}

// Offset of the event-engine state (virtual time, model version, dispatch
// counter, then the in-flight table count) of a checkpoint with an empty
// residual table (identity codec).
std::size_t EngineAt(const std::vector<std::uint8_t>& bytes) {
  const std::uint64_t records = LoadU64(bytes, kHistoryCountAt);
  const std::size_t residuals =
      kHistoryCountAt + 8 + records * kHistoryRecordBytes;
  EXPECT_EQ(LoadU64(bytes, residuals), 0u);
  return residuals + 8;
}

// Offset of the first in-flight record.
std::size_t FirstInflightAt(const std::vector<std::uint8_t>& bytes) {
  const std::size_t engine = EngineAt(bytes);
  EXPECT_GT(LoadU64(bytes, engine + 24), 0u) << "nothing in flight";
  return engine + 32;
}

// Record fields before the sample count: arrival, seq, params.
constexpr std::size_t kInflightSamplesAt = 8 + 8 + 8 + 4 * kToyModelSize;
// Then samples, steps, lr, loss, wire down/up, dropped, fault kind.
constexpr std::size_t kInflightClientIdAt =
    kInflightSamplesAt + 8 + 8 + 4 + 8 + 8 + 8 + 1 + 4;

AlgorithmConfig InflightConfig() {
  return ResumeGridConfig("FedAvg", /*async=*/true, comm::Scheme::kIdentity);
}

TEST(CheckpointValidationTest, InflightClientIdMustBeAClient) {
  auto patch = [](std::vector<std::uint8_t>& bytes, FlAlgorithm& algo) {
    Store(bytes, FirstInflightAt(bytes) + kInflightClientIdAt,
          algo.num_clients());
  };
  ExpectRejected(LoadPatched("FedAvg", InflightConfig(), 3, patch),
                 "in-flight client id 8 out of range");
}

TEST(CheckpointValidationTest, InflightSlotMustBeADispatchSlot) {
  auto patch = [](std::vector<std::uint8_t>& bytes, FlAlgorithm&) {
    Store(bytes, FirstInflightAt(bytes) + kInflightClientIdAt + 8,
          std::int64_t{4});  // K = 4
  };
  ExpectRejected(LoadPatched("FedAvg", InflightConfig(), 3, patch),
                 "in-flight slot 4 out of range");
}

TEST(CheckpointValidationTest, FedCrossInflightSlotMustBeAMiddlewareLane) {
  // Over-provisioned sampling draws K + 2 clients, but FedCross dispatches
  // exactly K jobs and an arrival's slot is the middleware lane it updates:
  // slot K is inside the sampler's width and still names no lane.
  AlgorithmConfig config =
      ResumeGridConfig("FedCross", /*async=*/true, comm::Scheme::kIdentity);
  config.faults.over_provision = 2;
  auto patch = [](std::vector<std::uint8_t>& bytes, FlAlgorithm&) {
    Store(bytes, FirstInflightAt(bytes) + kInflightClientIdAt + 8,
          std::int64_t{4});  // K = 4
  };
  ExpectRejected(LoadPatched("FedCross", config, 3, patch),
                 "in-flight slot 4 out of range");
}

TEST(CheckpointValidationTest, InflightDispatchVersionMustBeAPastVersion) {
  // Staleness is the model version minus the dispatch version; a negative
  // dispatch version could overflow that subtraction.
  auto patch = [](std::vector<std::uint8_t>& bytes, FlAlgorithm&) {
    Store(bytes, FirstInflightAt(bytes) + kInflightClientIdAt + 16,
          std::numeric_limits<std::int64_t>::min());
  };
  ExpectRejected(LoadPatched("FedAvg", InflightConfig(), 3, patch),
                 "in-flight dispatch version out of range");
}

TEST(CheckpointValidationTest, InflightSampleAndStepCountsMustFitAnInt) {
  for (std::size_t field : {std::size_t{0}, std::size_t{8}}) {
    auto patch = [field](std::vector<std::uint8_t>& bytes, FlAlgorithm&) {
      Store(bytes, FirstInflightAt(bytes) + kInflightSamplesAt + field,
            field == 0 ? std::int64_t{1} << 40 : -(std::int64_t{1} << 40));
    };
    ExpectRejected(LoadPatched("FedAvg", InflightConfig(), 3, patch),
                   field == 0 ? "in-flight sample count 1099511627776 does "
                                "not fit an int"
                              : "in-flight step count -1099511627776 does "
                                "not fit an int");
  }
}

TEST(CheckpointValidationTest, InflightArrivalMustBeFinite) {
  for (double arrival : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    auto patch = [arrival](std::vector<std::uint8_t>& bytes, FlAlgorithm&) {
      Store(bytes, FirstInflightAt(bytes), arrival);
    };
    ExpectRejected(LoadPatched("FedAvg", InflightConfig(), 3, patch),
                   "in-flight arrival time is not finite");
  }
}

TEST(CheckpointValidationTest, DispatchCounterMustBeAboveEveryInflightSeq) {
  // The next dispatch would take seq 0 again and tie with an in-flight one.
  auto patch = [](std::vector<std::uint8_t>& bytes, FlAlgorithm&) {
    Store(bytes, EngineAt(bytes) + 16, std::int64_t{0});
  };
  ExpectRejected(LoadPatched("FedAvg", InflightConfig(), 3, patch),
                 "dispatch counter is not above in-flight seq");
}

TEST(CheckpointValidationTest, VirtualClockMustBeFinite) {
  auto patch = [](std::vector<std::uint8_t>& bytes, FlAlgorithm&) {
    Store(bytes, EngineAt(bytes), std::numeric_limits<double>::quiet_NaN());
  };
  ExpectRejected(LoadPatched("FedAvg", ToyConfig(), 1, patch),
                 "virtual clock is not finite");
}

TEST(CheckpointValidationTest, ModelVersionMustNotBeNegative) {
  auto patch = [](std::vector<std::uint8_t>& bytes, FlAlgorithm&) {
    Store(bytes, EngineAt(bytes) + 8, std::int64_t{-1});
  };
  ExpectRejected(LoadPatched("FedAvg", ToyConfig(), 1, patch),
                 "negative checkpoint model version");
}

TEST(CheckpointValidationTest, HistoryRoundMustFitAnInt) {
  auto patch = [](std::vector<std::uint8_t>& bytes, FlAlgorithm&) {
    ASSERT_GT(LoadU64(bytes, kHistoryCountAt), 0u);
    Store(bytes, kHistoryCountAt + 8, std::int64_t{1} << 40);
  };
  ExpectRejected(LoadPatched("FedAvg", ToyConfig(), 1, patch),
                 "history round 1099511627776 does not fit an int");
}

TEST(CheckpointValidationTest, FaultTalliesMustBeCountsThatCanStillGrow) {
  // The six fault tallies sit right before the history count.
  const std::int64_t bad[] = {-1, std::numeric_limits<std::int64_t>::max()};
  for (int tally = 0; tally < 6; ++tally) {
    for (std::int64_t value : bad) {
      auto patch = [tally, value](std::vector<std::uint8_t>& bytes,
                                  FlAlgorithm&) {
        Store(bytes, kHistoryCountAt - 6 * 8 + tally * 8, value);
      };
      ExpectRejected(LoadPatched("FedAvg", ToyConfig(), 1, patch),
                     "fault tally " + std::to_string(value) + " out of range");
    }
  }
}

TEST(CheckpointValidationTest, PrivacyTalliesMustBeCountsThatCanStillGrow) {
  // clipped, mask pairs and mask recoveries close the base state, right
  // before FedAvg's global model.
  const std::int64_t bad[] = {-1, std::numeric_limits<std::int64_t>::max()};
  for (int tally = 0; tally < 3; ++tally) {
    for (std::int64_t value : bad) {
      auto patch = [tally, value](std::vector<std::uint8_t>& bytes,
                                  FlAlgorithm& algo) {
        const std::size_t global = FindFloats(bytes, algo.GlobalParams());
        Store(bytes, global - 24 + tally * 8, value);
      };
      ExpectRejected(LoadPatched("FedAvg", ToyConfig(), 1, patch),
                     "privacy tally " + std::to_string(value) +
                         " out of range");
    }
  }
}

TEST(CheckpointValidationTest, RejectedLoadLeavesTheStateUnchanged) {
  const std::string path = ::testing::TempDir() + "/robustness_unchanged.bin";
  std::unique_ptr<FlAlgorithm> writer = MakeAlgorithm("FedAvg", ToyConfig());
  writer->Run(3, /*eval_every=*/1);
  ASSERT_TRUE(writer->SaveCheckpoint(path).ok());
  std::vector<std::uint8_t> bytes = ReadBytes(path);
  Store(bytes, EngineAt(bytes) + 8, std::int64_t{-1});  // model version
  Reseal(bytes);
  WriteBytes(path, bytes);

  std::unique_ptr<FlAlgorithm> reader = MakeAlgorithm("FedAvg", ToyConfig());
  reader->Run(1, /*eval_every=*/1);
  const FlatParams params = reader->GlobalParams();
  const std::size_t records = reader->history().records().size();
  ExpectRejected(reader->LoadCheckpoint(path), "model version");
  EXPECT_EQ(reader->completed_rounds(), 1);
  EXPECT_EQ(reader->history().records().size(), records);
  ExpectBitIdentical(reader->GlobalParams(), params);
  std::remove(path.c_str());
}

// --------------------------------------------------------------------------
// Deterministic mutation fuzz of the checkpoint reader
// --------------------------------------------------------------------------

// Applies one random mutation to bytes[lo, end): a bit flip, a byte
// overwrite, an inflated length field (one of `counts`, the offsets that
// hold small u64 values), a truncation or an extension.
void Mutate(std::vector<std::uint8_t>& bytes, std::size_t lo,
            const std::vector<std::size_t>& counts, util::Rng& rng) {
  const std::size_t span = bytes.size() - lo;
  switch (rng.UniformInt(5)) {
    case 0:
      bytes[lo + rng.UniformInt(span)] ^=
          static_cast<std::uint8_t>(1u << rng.UniformInt(8));
      break;
    case 1:
      bytes[lo + rng.UniformInt(span)] ^=
          static_cast<std::uint8_t>(1 + rng.UniformInt(255));
      break;
    case 2: {
      const std::size_t at = counts[rng.UniformInt(counts.size())];
      const std::uint64_t count = LoadU64(bytes, at);
      const std::uint64_t inflated[] = {count + 1, count * 2 + 1,
                                        std::uint64_t{1} << 32,
                                        std::uint64_t{1} << 62, ~0ULL};
      Store(bytes, at, inflated[rng.UniformInt(5)]);
      break;
    }
    case 3:
      bytes.resize(lo + rng.UniformInt(span));
      break;
    default:
      for (std::uint64_t n = 1 + rng.UniformInt(64); n > 0; --n) {
        bytes.push_back(static_cast<std::uint8_t>(rng.UniformInt(256)));
      }
      break;
  }
}

TEST(CheckpointFuzzTest, MutatedCheckpointsFailCleanly) {
  // A FedCross checkpoint carrying every section: middleware, in-flight
  // uploads, codec residuals and a DP ledger.
  const AlgorithmConfig config =
      ResumeGridConfig("FedCross", /*async=*/true, comm::Scheme::kInt8TopK);
  const std::string path = ::testing::TempDir() + "/robustness_ckpt_fuzz.bin";
  {
    std::unique_ptr<FlAlgorithm> writer = MakeAlgorithm("FedCross", config);
    writer->Run(3, /*eval_every=*/1);
    ASSERT_GT(writer->inflight_dispatches(), 0);
    ASSERT_TRUE(writer->SaveCheckpoint(path).ok());
  }
  const std::vector<std::uint8_t> clean = ReadBytes(path);
  const std::vector<std::uint8_t> header(clean.begin(),
                                         clean.begin() + kHeaderBytes);
  std::vector<std::size_t> counts;  // body offsets of small u64 values
  for (std::size_t at = kHeaderBytes; at + 8 + 4 <= clean.size(); ++at) {
    if (LoadU64(clean, at) <= 4096) counts.push_back(at);
  }

  std::unique_ptr<FlAlgorithm> reader = MakeAlgorithm("FedCross", config);
  util::Rng rng(0xf0221);
  int loaded = 0;
  int rejected = 0;
  for (int i = 0; i < 10000; ++i) {
    // Raw: anywhere in the file, header and trailer included. Past the
    // header, the CRC is the check that catches it.
    std::vector<std::uint8_t> raw = clean;
    Mutate(raw, 0, counts, rng);
    WriteBytes(path, raw);
    util::Status status = reader->LoadCheckpoint(path);
    ASSERT_EQ(status.code(), util::StatusCode::kInvalidArgument)
        << "raw mutation " << i << ": " << status.ToString();
    if (raw.size() >= kHeaderBytes + 4 &&
        std::equal(header.begin(), header.end(), raw.begin())) {
      ASSERT_NE(status.ToString().find("CRC-32 mismatch"), std::string::npos)
          << "raw mutation " << i << ": " << status.ToString();
    }

    // Resealed: the body mutated and the CRC recomputed, so the structural
    // checks must hold the line on their own.
    std::vector<std::uint8_t> sealed(clean.begin(), clean.end() - 4);
    Mutate(sealed, kHeaderBytes, counts, rng);
    sealed.resize(sealed.size() + 4);
    Reseal(sealed);
    WriteBytes(path, sealed);
    status = reader->LoadCheckpoint(path);
    if (status.ok()) {
      ++loaded;
    } else {
      ASSERT_TRUE(status.code() == util::StatusCode::kInvalidArgument ||
                  status.code() == util::StatusCode::kFailedPrecondition)
          << "resealed mutation " << i << ": " << status.ToString();
      ++rejected;
    }
  }
  // Both outcomes occur: the fuzz reaches past the structural checks too.
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, 0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fedcross::fl
