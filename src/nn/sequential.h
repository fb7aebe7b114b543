#ifndef FEDCROSS_NN_SEQUENTIAL_H_
#define FEDCROSS_NN_SEQUENTIAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace fedcross::nn {

// Layer pipeline and the unit of FL exchange ("a model"). Besides chaining
// Forward/Backward it exposes the flat-parameter-vector view that the FL
// servers (FedAvg, FedCross, ...) aggregate, compare (cosine similarity)
// and dispatch.
class Sequential : public Layer {
 public:
  Sequential() = default;
  explicit Sequential(std::vector<std::unique_ptr<Layer>> layers);

  // Move-only: a model owns its layers.
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;
  Sequential(const Sequential&) = delete;
  Sequential& operator=(const Sequential&) = delete;

  void Add(std::unique_ptr<Layer> layer);

  // ---- Layer interface ----------------------------------------------------
  // Chains layer-owned output buffers; the returned reference is owned by
  // the last layer (or is the input itself for an empty pipeline) and stays
  // valid until the next Forward call.
  const Tensor& Forward(const Tensor& input) override;
  // Propagates gradients back through the stack; stops early if a layer
  // (e.g. Embedding) reports an empty input gradient. Returns the gradient
  // w.r.t. the pipeline input (possibly empty).
  const Tensor& Backward(const Tensor& grad_output) override;
  void CollectParams(std::vector<Param*>& out) override;
  std::string Name() const override { return "Sequential"; }

  // ---- Model utilities ----------------------------------------------------
  int num_layers() const { return static_cast<int>(layers_.size()); }

  // Borrowed pointer to layer `i` (0-based, registration order). Used by the
  // execution-plan compiler to inspect the topology and by the plan state to
  // bind per-replica parameters; the pointer stays valid for the model's
  // lifetime.
  Layer* layer(int i) {
    FC_CHECK_GE(i, 0);
    FC_CHECK_LT(i, num_layers());
    return layers_[static_cast<std::size_t>(i)].get();
  }

  // Stable parameter pointers (computed once, cached).
  const std::vector<Param*>& Params();

  // Total scalar parameter count.
  std::int64_t NumParams();

  // Clears every parameter gradient.
  void ZeroGrad();

  // Flat-vector interface: parameters are concatenated in registration
  // order. All models built from the same factory seed have identical
  // layouts, which is what makes cross-model arithmetic meaningful.
  std::vector<float> ParamsToFlat();
  void ParamsFromFlat(const std::vector<float>& flat);
  std::vector<float> GradsToFlat();

  // Out-parameter overloads that reuse the caller's storage (capacity is
  // retained across rounds). The hot FL paths use these to avoid per-round
  // flat-vector allocations.
  void ParamsToFlat(std::vector<float>& out);
  void GradsToFlat(std::vector<float>& out);

  // One-line architecture summary, e.g. "Conv2d->Relu->...->Linear (12345 params)".
  std::string Summary();

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<Param*> params_cache_;
  bool params_cached_ = false;
};

}  // namespace fedcross::nn

#endif  // FEDCROSS_NN_SEQUENTIAL_H_
