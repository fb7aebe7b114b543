#include "workloads.h"

#include <cmath>
#include <utility>
#include <vector>

#include "fl/fedavg.h"
#include "nn/activations.h"
#include "nn/linear.h"
#include "nn/sequential.h"
#include "util/rng.h"

namespace fcbench {
namespace {

using fedcross::Tensor;
namespace core = fedcross::core;
namespace data = fedcross::data;
namespace fl = fedcross::fl;
namespace models = fedcross::models;
namespace nn = fedcross::nn;

constexpr int kClasses = 10;
constexpr int kChannels = 3;
constexpr int kSide = 8;
constexpr int kPixels = kChannels * kSide * kSide;
constexpr int kMlpHidden1 = 1024;
constexpr int kMlpHidden2 = 64;

// SplitMix64 with the distribution helpers the inputs need.
class Gen {
 public:
  explicit Gen(std::uint64_t seed) : state_(seed) {}

  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform on [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  double Normal() {
    double radius = std::sqrt(-2.0 * std::log(1.0 - Uniform()));
    return radius * std::cos(6.283185307179586 * Uniform());
  }
  // Gamma(shape, 1): Marsaglia-Tsang, boosted by U^(1/shape) below 1.
  double Gamma(double shape) {
    if (shape < 1.0) {
      return Gamma(shape + 1.0) * std::pow(1.0 - Uniform(), 1.0 / shape);
    }
    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    for (;;) {
      double x = Normal();
      double v = 1.0 + c * x;
      if (v <= 0.0) continue;
      v = v * v * v;
      if (std::log(1.0 - Uniform()) < 0.5 * x * x + d - d * v + d * std::log(v)) {
        return d * v;
      }
    }
  }

 private:
  std::uint64_t state_;
};

// Independent stream per (seed, tag): no two inputs share a generator.
std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t tag) {
  return Gen(seed ^ (tag * 0xd1342543de82ef95ULL)).Next();
}
constexpr std::uint64_t kTaskSeed = 0;
constexpr std::uint64_t kTagPrototypes = 1;
constexpr std::uint64_t kTagTest = 2;
constexpr std::uint64_t kTagModel = 3;
constexpr std::uint64_t kTagRun = 4;
constexpr std::uint64_t kTagRep = 5;
constexpr std::uint64_t kTagShard = 1 << 20;  // + client id

// Class prototypes: smoothed Gaussian images scaled to unit RMS. They are
// the workload's fixed "dataset" -- the same for every seed, as a real
// benchmark keeps CIFAR fixed -- so runs with different seeds differ in the
// examples drawn, the partition, the model's initial weights and the run's
// randomness, not in how hard the task is.
struct ImageTask {
  std::vector<float> prototypes;  // kClasses x kPixels
  float noise = 1.0f;
  Tensor::Shape shape;            // example shape the model consumes
};

std::shared_ptr<const ImageTask> MakeTask(const Workload& w) {
  auto task = std::make_shared<ImageTask>();
  task->noise = w.noise;
  task->shape = w.arch == Arch::kMlp ? Tensor::Shape{kPixels}
                                     : Tensor::Shape{kChannels, kSide, kSide};
  task->prototypes.resize(static_cast<std::size_t>(kClasses) * kPixels);
  Gen gen(StreamSeed(kTaskSeed, kTagPrototypes));
  std::vector<double> raw(kPixels);
  for (int c = 0; c < kClasses; ++c) {
    for (double& v : raw) v = gen.Normal();
    float* proto = &task->prototypes[static_cast<std::size_t>(c) * kPixels];
    double energy = 0.0;
    for (int ch = 0; ch < kChannels; ++ch) {
      for (int y = 0; y < kSide; ++y) {
        for (int x = 0; x < kSide; ++x) {
          double sum = 0.0;
          int count = 0;
          for (int dy = -1; dy <= 1; ++dy) {
            for (int dx = -1; dx <= 1; ++dx) {
              int sy = y + dy;
              int sx = x + dx;
              if (sy < 0 || sy >= kSide || sx < 0 || sx >= kSide) continue;
              sum += raw[(ch * kSide + sy) * kSide + sx];
              ++count;
            }
          }
          double v = sum / count;
          proto[(ch * kSide + y) * kSide + x] = static_cast<float>(v);
          energy += v * v;
        }
      }
    }
    const float scale = static_cast<float>(1.0 / std::sqrt(energy / kPixels));
    for (int i = 0; i < kPixels; ++i) proto[i] *= scale;
  }
  return task;
}

// One example of class `label`: the prototype under a random gain and a
// one-pixel shift, plus Gaussian noise.
void Render(const ImageTask& task, int label, Gen& gen, float* out) {
  const float* proto =
      &task.prototypes[static_cast<std::size_t>(label) * kPixels];
  const double gain = 0.7 + 0.6 * gen.Uniform();
  const int dx = static_cast<int>(gen.Next() % 3) - 1;
  const int dy = static_cast<int>(gen.Next() % 3) - 1;
  for (int ch = 0; ch < kChannels; ++ch) {
    for (int y = 0; y < kSide; ++y) {
      for (int x = 0; x < kSide; ++x) {
        int sy = y - dy;
        int sx = x - dx;
        double v = (sy < 0 || sy >= kSide || sx < 0 || sx >= kSide)
                       ? 0.0
                       : proto[(ch * kSide + sy) * kSide + sx];
        out[(ch * kSide + y) * kSide + x] =
            static_cast<float>(gain * v + task.noise * gen.Normal());
      }
    }
  }
}

// Client `id`'s shard: a Dirichlet(beta) label mix, `size` fresh examples.
std::shared_ptr<data::Dataset> MakeShard(const ImageTask& task, int size,
                                         double beta, std::uint64_t seed,
                                         std::int64_t id) {
  Gen gen(StreamSeed(seed, kTagShard + static_cast<std::uint64_t>(id)));
  double mix[kClasses];
  double total = 0.0;
  for (double& p : mix) total += (p = gen.Gamma(beta));
  std::vector<float> features(static_cast<std::size_t>(size) * kPixels);
  std::vector<int> labels(size);
  for (int i = 0; i < size; ++i) {
    double u = gen.Uniform() * total;
    int label = 0;
    while (label + 1 < kClasses && u >= mix[label]) u -= mix[label++];
    labels[i] = label;
    Render(task, label, gen, &features[static_cast<std::size_t>(i) * kPixels]);
  }
  return std::make_shared<data::InMemoryDataset>(
      task.shape, std::move(features), std::move(labels), kClasses);
}

std::shared_ptr<data::Dataset> MakeTestSet(const ImageTask& task,
                                           int per_class, std::uint64_t seed) {
  Gen gen(StreamSeed(seed, kTagTest));
  const int size = per_class * kClasses;
  std::vector<float> features(static_cast<std::size_t>(size) * kPixels);
  std::vector<int> labels(size);
  for (int i = 0; i < size; ++i) {
    labels[i] = i % kClasses;
    Render(task, labels[i], gen,
           &features[static_cast<std::size_t>(i) * kPixels]);
  }
  return std::make_shared<data::InMemoryDataset>(
      task.shape, std::move(features), std::move(labels), kClasses);
}

models::ModelFactory MakeModel(const Workload& w, std::uint64_t seed) {
  const std::uint64_t model_seed = StreamSeed(seed, kTagModel);
  switch (w.arch) {
    case Arch::kCnn: {
      models::CnnConfig cnn;
      cnn.height = cnn.width = kSide;
      cnn.num_classes = kClasses;
      cnn.seed = model_seed;
      return models::MakeCnn(cnn);
    }
    case Arch::kResNet: {
      models::ResNetConfig resnet;
      resnet.height = resnet.width = kSide;
      resnet.num_classes = kClasses;
      resnet.seed = model_seed;
      return models::MakeResNet(resnet);
    }
    case Arch::kMlp:
      break;
  }
  return [model_seed]() {
    fedcross::util::Rng rng(model_seed);
    nn::Sequential model;
    model.Add(std::make_unique<nn::Linear>(kPixels, kMlpHidden1, rng));
    model.Add(std::make_unique<nn::Relu>());
    model.Add(std::make_unique<nn::Linear>(kMlpHidden1, kMlpHidden2, rng));
    model.Add(std::make_unique<nn::Relu>());
    model.Add(std::make_unique<nn::Linear>(kMlpHidden2, kClasses, rng));
    return model;
  };
}

std::vector<Workload> BuildWorkloads() {
  std::vector<Workload> all;

  // The paper's main configuration: client training dominates the round.
  Workload cnn;
  cnn.name = "cnn-sync";
  cnn.algo = Algo::kFedCross;
  cnn.arch = Arch::kCnn;
  cnn.num_clients = 100;
  cnn.shard_size = 10;
  cnn.beta = 0.5;
  cnn.noise = 1.0f;
  cnn.rounds = 30;
  cnn.eval_every = 5;
  cnn.fl_threads = 2;
  cnn.target_acc = 0.8;
  cnn.acc_floor = 0.85;
  cnn.config.clients_per_round = 10;
  cnn.config.train.local_epochs = 5;
  cnn.config.train.batch_size = 10;
  cnn.config.train.lr = 0.03f;
  cnn.config.train.momentum = 0.5f;
  cnn.config.train.exec = fl::ExecMode::kPlan;
  cnn.fedcross.alpha = 0.99;
  cnn.fedcross.strategy = core::SelectionStrategy::kLowestSimilarity;
  all.push_back(cnn);

  // Server-heavy: a wide MLP, one local step per client, many middleware
  // models and a compressing uplink codec.
  Workload wide;
  wide.name = "wide-server";
  wide.algo = Algo::kFedCross;
  wide.arch = Arch::kMlp;
  wide.num_clients = 100;
  wide.shard_size = 8;
  wide.beta = 0.5;
  wide.noise = 1.0f;
  wide.rounds = 40;
  wide.eval_every = 5;
  wide.fl_threads = 2;
  wide.target_acc = 0.8;
  wide.acc_floor = 0.8;
  wide.config.clients_per_round = 16;
  wide.config.train.local_epochs = 1;
  wide.config.train.batch_size = 8;
  wide.config.train.lr = 0.05f;
  wide.config.train.momentum = 0.5f;
  wide.config.train.exec = fl::ExecMode::kPlan;
  wide.config.codec.scheme = fedcross::comm::Scheme::kInt8TopK;
  wide.config.codec.topk_fraction = 0.1;
  wide.fedcross.alpha = 0.99;
  wide.fedcross.strategy = core::SelectionStrategy::kLowestSimilarity;
  all.push_back(wide);

  // The baseline on the async engine with every fault, privacy and
  // persistence feature on, over a virtual population.
  Workload resnet;
  resnet.name = "resnet-async";
  resnet.algo = Algo::kFedAvg;
  resnet.arch = Arch::kResNet;
  resnet.num_clients = 1000;
  resnet.shard_size = 10;
  resnet.beta = 0.5;
  resnet.noise = 1.0f;
  resnet.virtual_population = true;
  resnet.rounds = 30;
  resnet.eval_every = 5;
  resnet.checkpoint_every = 10;
  resnet.fl_threads = 2;
  resnet.target_acc = 0.8;
  resnet.acc_floor = 0.8;
  fl::AlgorithmConfig& rc = resnet.config;
  rc.clients_per_round = 10;
  rc.train.local_epochs = 5;
  rc.train.batch_size = 5;
  rc.train.lr = 0.1f;
  rc.train.momentum = 0.5f;
  rc.train.exec = fl::ExecMode::kPlan;
  rc.population = fl::PopulationMode::kVirtual;
  rc.state_store.max_resident = 4;
  rc.codec.scheme = fedcross::comm::Scheme::kInt8;
  rc.async.mode = fl::RoundMode::kAsync;
  rc.async.buffer_size = 10;
  rc.async.staleness = fl::StalenessPolicy::kPolynomial;
  rc.async.staleness_exponent = 0.5;
  rc.async.dispatch_timeout = 0.5;
  rc.async.max_retries = 1;
  rc.async.clock.compute_speed_min = 50.0;
  rc.async.clock.compute_speed_max = 200.0;
  rc.async.clock.bandwidth_min = 1e6;
  rc.async.clock.bandwidth_max = 1e7;
  rc.async.clock.jitter = 0.2;
  rc.faults.profile.dropout_prob = 0.05;
  rc.faults.profile.straggler_prob = 0.15;
  rc.faults.profile.slowdown_min = 2.0;
  rc.faults.profile.slowdown_max = 8.0;
  rc.faults.profile.corrupt_prob = 0.05;
  rc.faults.profile.corruption = fl::CorruptionKind::kNanInject;
  rc.screening.check_finite = true;
  rc.dp.clip_norm = 5.0f;
  rc.dp.noise_multiplier = 0.001f;
  rc.secure_agg.enabled = true;
  all.push_back(resnet);

  return all;
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload>* all =
      new std::vector<Workload>(BuildWorkloads());
  return *all;
}

}  // namespace

std::uint64_t RepSeed(std::uint64_t seed, int rep) {
  return StreamSeed(seed, kTagRep) + static_cast<std::uint64_t>(rep);
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string names;
  for (const Workload& w : Workloads()) {
    names += (names.empty() ? "" : "|") + w.name;
  }
  return names;
}

data::FederatedDataset MakeFederation(const Workload& w, std::uint64_t seed) {
  std::shared_ptr<const ImageTask> task = MakeTask(w);
  data::FederatedDataset federation;
  federation.num_classes = kClasses;
  federation.test = MakeTestSet(*task, w.test_per_class, seed);
  const int size = w.shard_size;
  const double beta = w.beta;
  if (w.virtual_population) {
    federation.virtual_clients = w.num_clients;
    federation.make_shard = [task, size, beta, seed](std::int64_t id) {
      return MakeShard(*task, size, beta, seed, id);
    };
  } else {
    federation.client_train.reserve(static_cast<std::size_t>(w.num_clients));
    for (std::int64_t id = 0; id < w.num_clients; ++id) {
      federation.client_train.push_back(MakeShard(*task, size, beta, seed, id));
    }
  }
  return federation;
}

std::unique_ptr<fl::FlAlgorithm> MakeServer(const Workload& w,
                                            std::uint64_t seed, int rep,
                                            data::FederatedDataset data) {
  fl::AlgorithmConfig config = w.config;
  config.seed = StreamSeed(kTaskSeed, kTagRun) + static_cast<std::uint64_t>(rep);
  models::ModelFactory factory = MakeModel(w, seed);
  if (w.algo == Algo::kFedCross) {
    return std::make_unique<core::FedCross>(config, std::move(data), factory,
                                            w.fedcross);
  }
  return std::make_unique<fl::FedAvg>(config, std::move(data), factory);
}

std::unique_ptr<core::FedCross> MakeFedCrossProbe(const Workload& w,
                                                  std::uint64_t seed) {
  fl::AlgorithmConfig config;
  config.clients_per_round = w.config.clients_per_round;
  config.train = w.config.train;
  config.population = w.config.population;
  config.seed = StreamSeed(kTaskSeed, kTagRun);
  core::FedCrossOptions options;  // the paper's alpha and strategy
  return std::make_unique<core::FedCross>(config, MakeFederation(w, seed),
                                          MakeModel(w, seed), options);
}

double TrainFlopsPerSample(const Workload& w) {
  double macs = 0.0;
  switch (w.arch) {
    case Arch::kCnn: {
      const models::CnnConfig c;
      const int half = kSide / 2;
      const int quarter = kSide / 4;
      macs = 1.0 * c.conv1_channels * kChannels * 25 * kSide * kSide +
             1.0 * c.conv2_channels * c.conv1_channels * 25 * half * half +
             1.0 * c.conv2_channels * quarter * quarter * c.fc_dim +
             1.0 * c.fc_dim * kClasses;
      break;
    }
    case Arch::kMlp:
      macs = 1.0 * kPixels * kMlpHidden1 + 1.0 * kMlpHidden1 * kMlpHidden2 +
             1.0 * kMlpHidden2 * kClasses;
      break;
    case Arch::kResNet: {
      // Stem conv, then one residual block per stage (3x3 conv pair plus a
      // 1x1 projection where the shape changes), then the classifier.
      const models::ResNetConfig c;
      int in = c.base_width;
      int side = kSide;
      macs = 1.0 * in * kChannels * 9 * side * side;
      for (int stage = 0; stage < 3; ++stage) {
        const int out = c.base_width << stage;
        if (stage > 0) side /= 2;
        const double area = 1.0 * side * side;
        macs += area * out * in * 9 + area * out * out * 9;
        if (stage > 0 || in != out) macs += area * out * in;
        in = out;
      }
      macs += 1.0 * in * kClasses;
      break;
    }
  }
  return 6.0 * macs;
}

std::int64_t SamplesPerDispatch(const Workload& w) {
  return static_cast<std::int64_t>(w.shard_size) * w.config.train.local_epochs;
}

}  // namespace fcbench
