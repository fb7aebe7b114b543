#ifndef FEDCROSS_NN_LAYER_H_
#define FEDCROSS_NN_LAYER_H_

#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace fedcross::nn {

// A model parameter: value and accumulated gradient, always the same
// shape. Layers own their Params; optimizers and the FL aggregation code
// access them through Layer::CollectParams pointers. Every Param is
// trained: the optimizer updates each one.
struct Param {
  Tensor value;
  Tensor grad;

  explicit Param(Tensor initial)
      : value(std::move(initial)), grad(Tensor::Zeros(value.shape())) {}

  void ZeroGrad() { grad.Fill(0.0f); }
};

// Base class for differentiable layers using module-style manual backprop.
//
// Contract:
//  - Forward(input) caches whatever Backward needs and returns the layer
//    output. A layer computes the same function in training and in
//    evaluation and keeps no state besides its Params and these caches, so
//    a pooled replica loaded with ParamsFromFlat behaves exactly like a
//    freshly built model: every Forward fully overwrites the caches.
//  - Backward(grad_output) consumes the cached state from the most recent
//    Forward, accumulates parameter gradients (+=), and returns the
//    gradient w.r.t. the layer input. Calling Backward twice without an
//    intervening Forward is undefined.
//  - Forward/Backward return references to layer-owned output buffers (or,
//    for identity layers, to the argument itself). The reference stays
//    valid until the layer's next Forward/Backward call; callers that need
//    a longer-lived value copy it. Layers reuse these buffers across
//    batches via Tensor::ResizeTo, so steady-state training allocates
//    nothing.
//  - Layers process one mini-batch at a time and are not thread-safe; each
//    simulated client owns its own model instance (fl::ModelPool hands out
//    per-job replicas).
class Layer {
 public:
  virtual ~Layer() = default;

  virtual const Tensor& Forward(const Tensor& input) = 0;
  virtual const Tensor& Backward(const Tensor& grad_output) = 0;

  // Appends pointers to this layer's parameters (stable for the layer's
  // lifetime). Default: no parameters.
  virtual void CollectParams(std::vector<Param*>& out) { (void)out; }

  // Human-readable layer type for debugging / summaries.
  virtual std::string Name() const = 0;
};

}  // namespace fedcross::nn

#endif  // FEDCROSS_NN_LAYER_H_
