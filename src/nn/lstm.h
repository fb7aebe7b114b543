#ifndef FEDCROSS_NN_LSTM_H_
#define FEDCROSS_NN_LSTM_H_

#include <string>
#include <vector>

#include "nn/layer.h"
#include "util/rng.h"

namespace fedcross::nn {

// Single-layer LSTM that consumes a full sequence and emits the final
// hidden state (sequence classification head).
// input:  [batch, time, input_dim]
// output: [batch, hidden_dim]  (h_T)
//
// Gate layout in the fused weight matrices is [i | f | g | o] along the
// 4*hidden axis. Backward is full BPTT from the final hidden state. The
// forget-gate bias is initialised to 1 (standard trick for gradient flow).
class Lstm : public Layer {
 public:
  Lstm(int input_dim, int hidden_dim, util::Rng& rng);

  const Tensor& Forward(const Tensor& input) override;
  const Tensor& Backward(const Tensor& grad_output) override;
  void CollectParams(std::vector<Param*>& out) override;
  std::string Name() const override { return "Lstm"; }

  int hidden_dim() const { return hidden_dim_; }
  int input_dim() const { return input_dim_; }

  // Plan-executor access to the fused parameter blocks.
  Param& weight_x_param() { return weight_x_; }
  Param& weight_h_param() { return weight_h_; }
  Param& bias_param() { return bias_; }

 private:
  int input_dim_;
  int hidden_dim_;
  Param weight_x_;  // [input_dim, 4*hidden]
  Param weight_h_;  // [hidden, 4*hidden]
  Param bias_;      // [4*hidden]

  // Per-timestep caches from the last Forward. The vectors are resized only
  // when the sequence length changes and each slot tensor keeps its storage
  // across batches, so steady-state BPTT training is allocation-free.
  Tensor cached_input_;          // [batch, time, input_dim]
  std::vector<Tensor> gates_;    // t -> [batch, 4*hidden], post-activation
  std::vector<Tensor> cells_;    // t -> [batch, hidden] (c_t)
  std::vector<Tensor> hiddens_;  // t -> [batch, hidden] (h_t); index 0 = h_{-1}=0

  // Step workspaces shared by Forward and Backward.
  Tensor x_t_;         // gathered [batch, input_dim] timestep slice
  Tensor dx_t_;        // [batch, input_dim]
  Tensor dz_;          // [batch, 4*hidden]
  Tensor dh_;          // [batch, hidden]
  Tensor dh_prev_;     // [batch, hidden]
  Tensor dc_;          // [batch, hidden]
  Tensor grad_input_;  // [batch, time, input_dim]
};

}  // namespace fedcross::nn

#endif  // FEDCROSS_NN_LSTM_H_
