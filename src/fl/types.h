#ifndef FEDCROSS_FL_TYPES_H_
#define FEDCROSS_FL_TYPES_H_

#include <cstdint>
#include <string>
#include <vector>

namespace fedcross::fl {

// A model's parameters as one flat float vector — the unit that crosses the
// (simulated) network and that all aggregation rules operate on.
using FlatParams = std::vector<float>;

// How local SGD executes. kLayers walks Layer::Forward/Backward per model
// (the historical path). kPlan compiles the model once into a static
// execution plan (nn/plan.h) and, for replicas small enough to share a
// core's cache (fl/plan_runner.h), runs a round's replicas in lockstep
// cohorts, fusing each GEMM across a cohort into one grouped call. Both
// modes train bit-identically at every --fl_threads value. The whole model
// zoo compiles — MLP/CNN/VGG straight lines, ResNet residual blocks, the
// Embedding+LSTM head; kPlan refuses (stops the process on) a topology it
// cannot compile, such as one with batch-norm, which trains only under
// kLayers. Not part of the checkpoint fingerprint: a run may switch modes
// across resume boundaries.
enum class ExecMode { kLayers = 0, kPlan = 1 };

// --exec flag plumbing for the example binaries.
inline bool ParseExecMode(const std::string& name, ExecMode* out) {
  if (name == "layers") {
    *out = ExecMode::kLayers;
    return true;
  }
  if (name == "plan") {
    *out = ExecMode::kPlan;
    return true;
  }
  return false;
}

inline const char* ExecModeName(ExecMode mode) {
  return mode == ExecMode::kPlan ? "plan" : "layers";
}

// Client-side local training hyperparameters. Defaults follow the paper's
// experimental settings (Section IV-A): B=50, E=5 epochs, SGD lr=0.01 with
// momentum 0.5.
struct TrainOptions {
  int local_epochs = 5;
  int batch_size = 50;
  float lr = 0.01f;
  float momentum = 0.5f;
  float weight_decay = 0.0f;
  float grad_clip_norm = 5.0f;  // stabilises small-width CPU models
  ExecMode exec = ExecMode::kLayers;
};

// Test-set metrics of one global model.
struct EvalResult {
  float loss = 0.0f;
  float accuracy = 0.0f;  // fraction in [0, 1]
};

// One FL round's record, kept by MetricsHistory.
struct RoundRecord {
  int round = 0;
  float test_loss = 0.0f;
  float test_accuracy = 0.0f;
  double bytes_up = 0.0;
  double bytes_down = 0.0;
  double mean_client_loss = 0.0;
};

}  // namespace fedcross::fl

#endif  // FEDCROSS_FL_TYPES_H_
