#include "nn/sequential.h"

#include <cstring>

namespace fedcross::nn {

Sequential::Sequential(std::vector<std::unique_ptr<Layer>> layers)
    : layers_(std::move(layers)) {}

void Sequential::Add(std::unique_ptr<Layer> layer) {
  FC_CHECK(layer != nullptr);
  FC_CHECK(!params_cached_) << "Add after parameter access";
  layers_.push_back(std::move(layer));
}

const Tensor& Sequential::Forward(const Tensor& input) {
  const Tensor* activation = &input;
  for (auto& layer : layers_) activation = &layer->Forward(*activation);
  return *activation;
}

const Tensor& Sequential::Backward(const Tensor& grad_output) {
  const Tensor* grad = &grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    grad = &(*it)->Backward(*grad);
    if (grad->numel() == 0) break;  // discrete-input layer: stop propagating
  }
  return *grad;
}

void Sequential::CollectParams(std::vector<Param*>& out) {
  for (auto& layer : layers_) layer->CollectParams(out);
}

const std::vector<Param*>& Sequential::Params() {
  if (!params_cached_) {
    CollectParams(params_cache_);
    params_cached_ = true;
  }
  return params_cache_;
}

std::int64_t Sequential::NumParams() {
  std::int64_t total = 0;
  for (Param* param : Params()) total += param->value.numel();
  return total;
}

void Sequential::ZeroGrad() {
  for (Param* param : Params()) param->ZeroGrad();
}

std::vector<float> Sequential::ParamsToFlat() {
  std::vector<float> flat;
  ParamsToFlat(flat);
  return flat;
}

void Sequential::ParamsToFlat(std::vector<float>& out) {
  out.resize(NumParams());  // retains capacity across rounds
  std::size_t offset = 0;
  for (Param* param : Params()) {
    std::memcpy(out.data() + offset, param->value.data(),
                param->value.numel() * sizeof(float));
    offset += param->value.numel();
  }
}

void Sequential::ParamsFromFlat(const std::vector<float>& flat) {
  FC_CHECK_EQ(static_cast<std::int64_t>(flat.size()), NumParams());
  std::size_t offset = 0;
  for (Param* param : Params()) {
    std::memcpy(param->value.data(), flat.data() + offset,
                param->value.numel() * sizeof(float));
    offset += param->value.numel();
  }
}

std::vector<float> Sequential::GradsToFlat() {
  std::vector<float> flat;
  GradsToFlat(flat);
  return flat;
}

void Sequential::GradsToFlat(std::vector<float>& out) {
  out.resize(NumParams());
  std::size_t offset = 0;
  for (Param* param : Params()) {
    std::memcpy(out.data() + offset, param->grad.data(),
                param->grad.numel() * sizeof(float));
    offset += param->grad.numel();
  }
}

std::string Sequential::Summary() {
  std::string summary;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (i > 0) summary += "->";
    summary += layers_[i]->Name();
  }
  summary += " (" + std::to_string(NumParams()) + " params)";
  return summary;
}

}  // namespace fedcross::nn
