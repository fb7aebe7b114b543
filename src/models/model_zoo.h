#ifndef FEDCROSS_MODELS_MODEL_ZOO_H_
#define FEDCROSS_MODELS_MODEL_ZOO_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "nn/sequential.h"

namespace fedcross::models {

// Builds a fresh model instance. All FL participants construct their models
// through the same factory (same seed), so every instance has an identical
// parameter layout — the precondition for flat-vector aggregation.
using ModelFactory = std::function<nn::Sequential()>;

// The evaluation models of the paper (Section IV-A3), width/depth-scaled
// for CPU simulation; see DESIGN.md §1.

struct CnnConfig {
  int in_channels = 3;
  int height = 16;
  int width = 16;
  int num_classes = 10;
  int conv1_channels = 16;  // paper CNN: 2 conv + 2 fc (McMahan et al.)
  int conv2_channels = 32;
  int fc_dim = 64;
  std::uint64_t seed = 1;
};

// FedAvg's CNN: conv5x5 -> maxpool -> conv5x5 -> maxpool -> fc -> fc.
ModelFactory MakeCnn(const CnnConfig& config);

struct ResNetConfig {
  int in_channels = 3;
  int height = 16;
  int width = 16;
  int num_classes = 10;
  int blocks_per_stage = 1;  // 3 => ResNet-20; 1 => ResNet-8
  int base_width = 8;
  int gn_groups = 4;
  std::uint64_t seed = 1;
};

// CIFAR-style ResNet (He et al.): stem conv, three stages of residual
// blocks with width doubling and stride-2 downsampling, global average
// pool, linear classifier.
ModelFactory MakeResNet(const ResNetConfig& config);

struct VggConfig {
  int in_channels = 3;
  int height = 16;
  int width = 16;
  int num_classes = 10;
  int base_width = 8;   // stage widths: w, 2w, 4w
  int fc_dim = 64;
  std::uint64_t seed = 1;
};

// VGG-style stack: three stages of (conv3x3, conv3x3, maxpool) followed by
// two fully-connected layers — the connection-heavy family of the paper.
ModelFactory MakeVgg(const VggConfig& config);

struct LstmConfig {
  int vocab_size = 32;
  int seq_len = 16;  // informational; the LSTM handles any length
  int embed_dim = 16;
  int hidden_dim = 32;
  int num_classes = 32;
  std::uint64_t seed = 1;
};

// Embedding -> LSTM -> Linear classifier (Shakespeare / Sent140 head).
ModelFactory MakeLstm(const LstmConfig& config);

}  // namespace fedcross::models

#endif  // FEDCROSS_MODELS_MODEL_ZOO_H_
