#include "nn/lstm.h"

#include <utility>

#include "nn/init.h"
#include "nn/kernels.h"
#include "tensor/tensor_ops.h"

namespace fedcross::nn {

Lstm::Lstm(int input_dim, int hidden_dim, util::Rng& rng)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      weight_x_(XavierUniform({input_dim, 4 * hidden_dim}, input_dim,
                              hidden_dim, rng)),
      weight_h_(XavierUniform({hidden_dim, 4 * hidden_dim}, hidden_dim,
                              hidden_dim, rng)),
      bias_(Tensor::Zeros({4 * hidden_dim})) {
  FC_CHECK_GT(input_dim, 0);
  FC_CHECK_GT(hidden_dim, 0);
  // Forget-gate bias = 1 so early training does not wipe cell state.
  float* bias = bias_.value.data();
  for (int j = hidden_dim_; j < 2 * hidden_dim_; ++j) bias[j] = 1.0f;
}

const Tensor& Lstm::Forward(const Tensor& input) {
  FC_CHECK_EQ(input.ndim(), 3);
  FC_CHECK_EQ(input.dim(2), input_dim_);
  int batch = input.dim(0);
  int time = input.dim(1);
  int h4 = 4 * hidden_dim_;

  cached_input_ = input;
  // Resize (not assign) so the per-step tensors keep their capacity when the
  // sequence length is stable.
  if (static_cast<int>(gates_.size()) != time) {
    gates_.resize(time);
    cells_.resize(time);
    hiddens_.resize(time + 1);
  }
  hiddens_[0].ResizeTo({batch, hidden_dim_});
  hiddens_[0].Fill(0.0f);

  x_t_.ResizeTo({batch, input_dim_});
  for (int t = 0; t < time; ++t) {
    // x_t is strided inside [batch, time, input]; gather per timestep.
    const float* in = input.data();
    float* xt = x_t_.data();
    for (int b = 0; b < batch; ++b) {
      const float* src =
          in + (static_cast<std::int64_t>(b) * time + t) * input_dim_;
      float* dst = xt + static_cast<std::int64_t>(b) * input_dim_;
      for (int d = 0; d < input_dim_; ++d) dst[d] = src[d];
    }

    // Pre-activations z = x_t Wx + h_{t-1} Wh + b (beta=0 overwrites the
    // reused gate buffer).
    Tensor& z = gates_[t];
    z.ResizeTo({batch, h4});
    ops::Gemm(false, false, batch, h4, input_dim_, 1.0f, x_t_.data(),
              input_dim_, weight_x_.value.data(), h4, 0.0f, z.data(), h4);
    ops::Gemm(false, false, batch, h4, hidden_dim_, 1.0f,
              hiddens_[t].data(), hidden_dim_, weight_h_.value.data(), h4,
              1.0f, z.data(), h4);
    kernels::BiasAddRows(z.data(), bias_.value.data(), batch, h4);

    // Activations and state update (shared fused-gate kernel: the plan
    // executor's kLstm step calls the same loop).
    Tensor& cell = cells_[t];
    Tensor& hidden = hiddens_[t + 1];
    cell.ResizeTo({batch, hidden_dim_});
    hidden.ResizeTo({batch, hidden_dim_});
    const float* c_prev = t > 0 ? cells_[t - 1].data() : nullptr;  // c_{-1}=0
    kernels::LstmGateForward(z.data(), c_prev, cell.data(), hidden.data(),
                             batch, hidden_dim_);
  }
  return hiddens_[time];
}

const Tensor& Lstm::Backward(const Tensor& grad_output) {
  int batch = cached_input_.dim(0);
  int time = cached_input_.dim(1);
  int h4 = 4 * hidden_dim_;
  FC_CHECK_EQ(grad_output.ndim(), 2);
  FC_CHECK_EQ(grad_output.dim(0), batch);
  FC_CHECK_EQ(grad_output.dim(1), hidden_dim_);

  grad_input_.ResizeTo({batch, time, input_dim_});
  dh_ = grad_output;  // dL/dh_t
  dc_.ResizeTo({batch, hidden_dim_});
  dc_.Fill(0.0f);  // dL/dc_t
  dz_.ResizeTo({batch, h4});
  x_t_.ResizeTo({batch, input_dim_});
  dx_t_.ResizeTo({batch, input_dim_});
  dh_prev_.ResizeTo({batch, hidden_dim_});

  for (int t = time - 1; t >= 0; --t) {
    const float* cell_prev_data =
        t > 0 ? cells_[t - 1].data() : nullptr;  // c_{-1} = 0
    kernels::LstmGateBackward(gates_[t].data(), cells_[t].data(),
                              cell_prev_data, dh_.data(), dc_.data(),
                              dz_.data(), batch, hidden_dim_);

    // Gather x_t for the weight gradient.
    const float* in = cached_input_.data();
    float* xt = x_t_.data();
    for (int b = 0; b < batch; ++b) {
      const float* src =
          in + (static_cast<std::int64_t>(b) * time + t) * input_dim_;
      float* dst = xt + static_cast<std::int64_t>(b) * input_dim_;
      for (int d = 0; d < input_dim_; ++d) dst[d] = src[d];
    }

    // dWx += x_t^T dz ; dWh += h_{t-1}^T dz ; db += colsum dz.
    ops::Gemm(true, false, input_dim_, h4, batch, 1.0f, x_t_.data(), input_dim_,
              dz_.data(), h4, 1.0f, weight_x_.grad.data(), h4);
    ops::Gemm(true, false, hidden_dim_, h4, batch, 1.0f, hiddens_[t].data(),
              hidden_dim_, dz_.data(), h4, 1.0f, weight_h_.grad.data(), h4);
    kernels::BiasGradRows(dz_.data(), bias_.grad.data(), batch, h4);

    // dx_t = dz Wx^T ; dh_{t-1} = dz Wh^T.
    ops::Gemm(false, true, batch, input_dim_, h4, 1.0f, dz_.data(), h4,
              weight_x_.value.data(), h4, 0.0f, dx_t_.data(), input_dim_);
    dh_prev_.ResizeTo({batch, hidden_dim_});
    ops::Gemm(false, true, batch, hidden_dim_, h4, 1.0f, dz_.data(), h4,
              weight_h_.value.data(), h4, 0.0f, dh_prev_.data(), hidden_dim_);
    std::swap(dh_, dh_prev_);  // buffers ping-pong; no allocation

    // Scatter dx_t back into [batch, time, input].
    float* gin = grad_input_.data();
    const float* dxt = dx_t_.data();
    for (int b = 0; b < batch; ++b) {
      float* dst = gin + (static_cast<std::int64_t>(b) * time + t) * input_dim_;
      const float* src = dxt + static_cast<std::int64_t>(b) * input_dim_;
      for (int d = 0; d < input_dim_; ++d) dst[d] = src[d];
    }
  }
  return grad_input_;
}

void Lstm::CollectParams(std::vector<Param*>& out) {
  out.push_back(&weight_x_);
  out.push_back(&weight_h_);
  out.push_back(&bias_);
}

}  // namespace fedcross::nn
