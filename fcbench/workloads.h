// The benchmark's three workloads and the inputs they are built from.
//
// Every input -- client shards, the test set, the model's initial weights
// and the run seed handed to the server -- is generated here from the
// workload seed with the benchmark's own generator, so a change to the
// library's synthetic-data helpers or RNG cannot silently change what the
// benchmark measures. The class prototypes the examples are drawn around
// are fixed per workload, like a real benchmark's dataset.
#ifndef FCBENCH_WORKLOADS_H_
#define FCBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "core/fedcross.h"
#include "data/dataset.h"
#include "fl/algorithm.h"
#include "models/model_zoo.h"

namespace fcbench {

enum class Algo { kFedCross, kFedAvg };
enum class Arch { kCnn, kMlp, kResNet };

struct Workload {
  std::string name;
  Algo algo = Algo::kFedCross;
  Arch arch = Arch::kCnn;

  // Synthetic image task: 3x8x8 inputs, 10 classes, per-client label mix
  // drawn from Dirichlet(beta), every shard the same size.
  std::int64_t num_clients = 100;
  int shard_size = 10;
  int test_per_class = 100;
  double beta = 0.5;
  float noise = 1.0f;
  bool virtual_population = false;

  // Closed loop: `rounds` RunRound calls back to back, the global model
  // evaluated after every round until it first reaches `target_acc`, then
  // every `eval_every` rounds (and after the last), and a checkpoint saved
  // every `checkpoint_every` rounds (0 = never).
  int rounds = 40;
  int eval_every = 2;
  int checkpoint_every = 0;
  int fl_threads = 2;

  // Accuracy (fraction) whose first evaluation stops the time_to_target
  // clock, and the floor the final accuracy must reach.
  double target_acc = 0.5;
  double acc_floor = 0.5;

  fedcross::fl::AlgorithmConfig config;      // seed is filled in per run
  fedcross::core::FedCrossOptions fedcross;  // used when algo == kFedCross
};

// Seed of repetition `rep` of a run with seed `seed`: every repetition
// simulates a fresh draw of the workload's inputs.
std::uint64_t RepSeed(std::uint64_t seed, int rep);

// Workload by name, or nullptr.
const Workload* FindWorkload(const std::string& name);
std::string WorkloadNames();

// Test set plus one shard per client (a shard factory for virtual
// populations). Pure in (workload, seed).
fedcross::data::FederatedDataset MakeFederation(const Workload& w,
                                                std::uint64_t seed);

// The server the workload drives, over `data` drawn from `seed`; the model's
// initial weights come from `seed` too. The run seed handed to the library
// -- client sampling, device speeds, faults and DP noise: the simulated
// fleet -- depends only on the repetition index `rep`, so every run meets
// the same fleets and per-round cost does not swing with the seed.
std::unique_ptr<fedcross::fl::FlAlgorithm> MakeServer(
    const Workload& w, std::uint64_t seed, int rep,
    fedcross::data::FederatedDataset data);

// A plain sync FedCross server over the workload's data, model and K, for
// probing the core layer on workloads whose own server is not FedCross.
std::unique_ptr<fedcross::core::FedCross> MakeFedCrossProbe(
    const Workload& w, std::uint64_t seed);

// Analytic FLOPs of one training sample (forward + backward of the conv and
// linear layers: 3 passes x 2 FLOPs per multiply-accumulate).
double TrainFlopsPerSample(const Workload& w);

// Local-training samples one dispatch trains on (shard x epochs).
std::int64_t SamplesPerDispatch(const Workload& w);

}  // namespace fcbench

#endif  // FCBENCH_WORKLOADS_H_
