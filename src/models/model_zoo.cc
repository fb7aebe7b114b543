#include "models/model_zoo.h"

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/embedding.h"
#include "nn/flatten.h"
#include "nn/linear.h"
#include "nn/lstm.h"
#include "nn/norm.h"
#include "nn/pooling.h"
#include "nn/residual.h"
#include "util/rng.h"

namespace fedcross::models {
namespace {

int PoolOut(int size) { return size / 2; }

}  // namespace

ModelFactory MakeCnn(const CnnConfig& config) {
  return [config]() {
    util::Rng rng(config.seed);
    nn::Sequential model;
    model.Add(std::make_unique<nn::Conv2d>(config.in_channels,
                                           config.conv1_channels,
                                           /*kernel=*/5, /*stride=*/1,
                                           /*pad=*/2, rng));
    model.Add(std::make_unique<nn::Relu>());
    model.Add(std::make_unique<nn::MaxPool2d>(/*kernel=*/2, /*stride=*/2));
    model.Add(std::make_unique<nn::Conv2d>(config.conv1_channels,
                                           config.conv2_channels,
                                           /*kernel=*/5, /*stride=*/1,
                                           /*pad=*/2, rng));
    model.Add(std::make_unique<nn::Relu>());
    model.Add(std::make_unique<nn::MaxPool2d>(/*kernel=*/2, /*stride=*/2));
    model.Add(std::make_unique<nn::Flatten>());
    int spatial = PoolOut(PoolOut(config.height)) * PoolOut(PoolOut(config.width));
    model.Add(std::make_unique<nn::Linear>(config.conv2_channels * spatial,
                                           config.fc_dim, rng));
    model.Add(std::make_unique<nn::Relu>());
    model.Add(
        std::make_unique<nn::Linear>(config.fc_dim, config.num_classes, rng));
    return model;
  };
}

ModelFactory MakeResNet(const ResNetConfig& config) {
  return [config]() {
    util::Rng rng(config.seed);
    nn::Sequential model;
    int width = config.base_width;
    // Stem.
    model.Add(std::make_unique<nn::Conv2d>(config.in_channels, width,
                                           /*kernel=*/3, /*stride=*/1,
                                           /*pad=*/1, rng));
    model.Add(std::make_unique<nn::GroupNorm>(width, config.gn_groups));
    model.Add(std::make_unique<nn::Relu>());
    // Three stages; stages 2 and 3 downsample and double the width.
    int in_channels = width;
    for (int stage = 0; stage < 3; ++stage) {
      int out_channels = width << stage;
      int stride = stage == 0 ? 1 : 2;
      for (int block = 0; block < config.blocks_per_stage; ++block) {
        model.Add(std::make_unique<nn::ResidualBlock>(
            in_channels, out_channels, block == 0 ? stride : 1,
            config.gn_groups, rng));
        in_channels = out_channels;
      }
    }
    model.Add(std::make_unique<nn::GlobalAvgPool>());
    model.Add(
        std::make_unique<nn::Linear>(in_channels, config.num_classes, rng));
    return model;
  };
}

ModelFactory MakeVgg(const VggConfig& config) {
  return [config]() {
    util::Rng rng(config.seed);
    nn::Sequential model;
    int in_channels = config.in_channels;
    int height = config.height;
    int width_px = config.width;
    for (int stage = 0; stage < 3; ++stage) {
      int out_channels = config.base_width << stage;
      for (int conv = 0; conv < 2; ++conv) {
        model.Add(std::make_unique<nn::Conv2d>(in_channels, out_channels,
                                               /*kernel=*/3, /*stride=*/1,
                                               /*pad=*/1, rng));
        model.Add(std::make_unique<nn::Relu>());
        in_channels = out_channels;
      }
      model.Add(std::make_unique<nn::MaxPool2d>(/*kernel=*/2, /*stride=*/2));
      height = PoolOut(height);
      width_px = PoolOut(width_px);
    }
    model.Add(std::make_unique<nn::Flatten>());
    model.Add(std::make_unique<nn::Linear>(in_channels * height * width_px,
                                           config.fc_dim, rng));
    model.Add(std::make_unique<nn::Relu>());
    model.Add(
        std::make_unique<nn::Linear>(config.fc_dim, config.num_classes, rng));
    return model;
  };
}

ModelFactory MakeLstm(const LstmConfig& config) {
  return [config]() {
    util::Rng rng(config.seed);
    nn::Sequential model;
    model.Add(std::make_unique<nn::Embedding>(config.vocab_size,
                                              config.embed_dim, rng));
    model.Add(
        std::make_unique<nn::Lstm>(config.embed_dim, config.hidden_dim, rng));
    model.Add(std::make_unique<nn::Linear>(config.hidden_dim,
                                           config.num_classes, rng));
    return model;
  };
}

}  // namespace fedcross::models
