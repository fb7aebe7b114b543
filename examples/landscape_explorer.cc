// Scenario: inspect *why* FedCross generalises — train FedAvg and FedCross
// side by side, then probe the loss landscape around each global model
// (filter-normalised 2-D surface, as in the paper's Fig. 4) and print both
// an ASCII heat map and sharpness numbers.
//
//   ./landscape_explorer [--rounds 40] [--grid 9] [--radius 0.8]
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

#include "core/fedcross.h"
#include "core/landscape.h"
#include "data/partition.h"
#include "data/synthetic_image.h"
#include "fl/fedavg.h"
#include "models/model_zoo.h"
#include "util/flags.h"

namespace {

using namespace fedcross;

// Renders the loss grid as ASCII shades, low loss = '.', high = '#'.
void PrintAscii(const core::LandscapeResult& landscape) {
  double lo = landscape.loss[0][0];
  double hi = lo;
  for (const auto& row : landscape.loss) {
    for (double value : row) {
      lo = std::min(lo, value);
      hi = std::max(hi, value);
    }
  }
  const char* shades = " .:-=+*#%@";
  for (const auto& row : landscape.loss) {
    std::string line;
    for (double value : row) {
      int level = hi > lo ? static_cast<int>((value - lo) / (hi - lo) * 9.0)
                          : 0;
      line += shades[level];
      line += shades[level];
    }
    std::printf("    %s\n", line.c_str());
  }
}

int Run(int argc, char** argv) {
  util::FlagParser flags(argc, argv);
  fl::SetFlThreads(flags.GetInt("fl_threads", 0));
  int rounds = flags.GetInt("rounds", 40);
  int grid = flags.GetInt("grid", 9);
  double radius = flags.GetDouble("radius", 0.8);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    return 1;
  }

  data::SyntheticImageOptions image_options;
  image_options.num_classes = 10;
  image_options.height = image_options.width = 8;
  image_options.train_per_class = 60;
  image_options.test_per_class = 20;
  data::ImageCorpus corpus = data::MakeSyntheticImageCorpus(image_options);

  auto make_data = [&]() {
    util::Rng rng(5);
    data::FederatedDataset federated;
    federated.num_classes = 10;
    federated.client_train = data::MakeClientShards(
        corpus.train, data::DirichletPartition(*corpus.train, 20, 0.1, rng));
    federated.test = corpus.test;
    return federated;
  };

  models::ResNetConfig resnet;
  resnet.height = resnet.width = 8;
  resnet.num_classes = 10;
  resnet.base_width = 6;
  resnet.gn_groups = 2;
  models::ModelFactory factory = models::MakeResNet(resnet);

  fl::AlgorithmConfig config;
  config.clients_per_round = 4;
  config.train.local_epochs = 5;
  config.train.batch_size = 20;
  config.train.lr = 0.03f;
  config.train.momentum = 0.5f;

  core::LandscapeOptions landscape_options;
  landscape_options.grid = grid;
  landscape_options.radius = radius;
  landscape_options.max_examples = 120;

  for (const char* method : {"FedAvg", "FedCross"}) {
    std::unique_ptr<fl::FlAlgorithm> algorithm;
    if (std::string_view(method) == "FedAvg") {
      algorithm = std::make_unique<fl::FedAvg>(config, make_data(), factory);
    } else {
      core::FedCrossOptions options;
      options.alpha = 0.9;
      algorithm = std::make_unique<core::FedCross>(config, make_data(),
                                                   factory, options);
    }
    algorithm->Run(rounds, rounds);
    fl::FlatParams params = algorithm->GlobalParams();
    core::LandscapeResult landscape = core::ProbeLossLandscape(
        factory, params, algorithm->test_set(), landscape_options);

    std::printf("\n%s after %d rounds — accuracy %.2f%%\n", method,
                rounds,
                algorithm->history().BestAccuracy() * 100);
    std::printf("  loss surface (radius %.2f, filter-normalised):\n", radius);
    PrintAscii(landscape);
    std::printf("  center loss %.4f | border sharpness %.4f | max increase "
                "%.4f\n",
                landscape.center_loss, landscape.border_sharpness,
                landscape.max_increase);
  }
  std::printf("\nFlatter surface (smaller sharpness) = better-generalising "
              "minimum; the paper's Fig. 4 claim is that FedCross lands in "
              "the flatter valley.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
