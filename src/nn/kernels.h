#ifndef FEDCROSS_NN_KERNELS_H_
#define FEDCROSS_NN_KERNELS_H_

#include <cstdint>

namespace fedcross::nn::kernels {

// Raw-buffer kernels shared by the per-layer classes and the execution-plan
// runtime. Both paths must produce bit-identical floats, and floating-point
// expression trees may be contracted (e.g. into FMAs) differently in
// different translation units, so every non-GEMM arithmetic loop lives here,
// out of line, in exactly one TU. A kernel with y != x is the out-of-place
// form of the historical copy-then-mutate layer code; calling it with
// y == x reproduces the in-place form, and both evaluate the same
// per-element expression.

// ---- Activations ----------------------------------------------------------
void ReluForward(const float* x, float* y, std::int64_t n);
// dx from the cached *output* (y == 0 iff the forward input was <= 0).
void ReluBackward(const float* y, const float* dy, float* dx, std::int64_t n);

// ---- Linear bias ----------------------------------------------------------
// y[r, j] += bias[j] over a rows x cols matrix.
void BiasAddRows(float* y, const float* bias, int rows, int cols);
// dbias[j] += sum_r dy[r, j], accumulated in ascending-row order.
void BiasGradRows(const float* dy, float* dbias, int rows, int cols);

// ---- Conv bias ------------------------------------------------------------
// y[b, c, i] += bias[c] over [batch, channels, area].
void ConvBiasAdd(float* y, const float* bias, int batch, int channels,
                 int area);
// dbias[c] += (double-accumulated) spatial sum of dy[b, c, :] for one image.
void ConvBiasGradImage(const float* dy_image, float* dbias, int channels,
                       int area);

// ---- Pooling --------------------------------------------------------------
// Strided square max pooling; records the flat input index of each window
// argmax (first-seen-wins on ties, matching the strict > comparison).
void MaxPoolForward(const float* x, float* y, std::int64_t* argmax, int batch,
                    int channels, int height, int width, int out_h, int out_w,
                    int kernel, int stride);
// Zeroes dx then scatter-adds dy through the recorded argmax indices.
void MaxPoolBackward(const float* dy, const std::int64_t* argmax,
                     std::int64_t out_numel, float* dx, std::int64_t in_numel);
// [batch, channels, area] -> [batch, channels] mean (double accumulator).
void GlobalAvgPoolForward(const float* x, float* y, int batch, int channels,
                          int area);
void GlobalAvgPoolBackward(const float* dy, float* dx, int batch, int channels,
                           int area);

// ---- GroupNorm ------------------------------------------------------------
// Normalises each (sample, group) slice; stores xhat and the per-(b, g)
// inv_std needed by the backward pass.
void GroupNormForward(const float* x, float* y, float* xhat, float* inv_std,
                      const float* gamma, const float* beta, int batch,
                      int channels, int groups, int area, float eps);
// Accumulates dgamma/dbeta (+=) and writes dx.
void GroupNormBackward(const float* dy, const float* xhat,
                       const float* inv_std, const float* gamma, float* dgamma,
                       float* dbeta, float* dx, int batch, int channels,
                       int groups, int area);

// ---- Elementwise add --------------------------------------------------------
// y[i] = a[i] + b[i]; y may alias a (the historical Tensor::AddInPlace form
// the residual block used). Also the residual gradient-accumulation rule.
void Add(const float* a, const float* b, float* y, std::int64_t n);

// ---- LSTM gates -------------------------------------------------------------
// Fused gate update for one timestep. `z` holds the [batch, 4*hidden]
// pre-activations ([i | f | g | o] layout) on entry and the activated gates
// on exit; c_prev may be null (c_{-1} = 0). Writes c_t and h_t
// ([batch, hidden] each).
void LstmGateForward(float* z, const float* c_prev, float* c, float* h,
                     int batch, int hidden);
// Backward gate update for one timestep: reads the activated gates, c_t,
// c_{t-1} (null = zeros) and dh_t, consumes/updates dc in place (in: dc_t,
// out: dc_{t-1}) and writes the pre-activation gradients dz.
void LstmGateBackward(const float* gates, const float* cell,
                      const float* cell_prev, const float* dh, float* dc,
                      float* dz, int batch, int hidden);

// ---- Embedding --------------------------------------------------------------
// Casts float-stored token ids to integers (bounds-checked against vocab),
// records them in `ids`, and gathers table rows: y[i, :] = table[ids[i], :].
void EmbeddingGather(const float* ids_f, std::int64_t tokens, int vocab,
                     const float* table, int embed, std::int64_t* ids,
                     float* y);
// table_grad[ids[i], :] += dy[i, :], accumulated in ascending token order.
void EmbeddingScatterAdd(const std::int64_t* ids, std::int64_t tokens,
                         const float* dy, int embed, float* table_grad);

// ---- Softmax cross-entropy ------------------------------------------------
// `probs` holds the logits on entry and is softmaxed in place; when
// compute_grad it then becomes (softmax - onehot) / batch. Returns the mean
// loss and the argmax-accuracy count. Labels are bounds-checked.
void CrossEntropyInPlace(float* probs, int batch, int classes,
                         const int* labels, bool compute_grad, float* loss,
                         int* correct);

}  // namespace fedcross::nn::kernels

#endif  // FEDCROSS_NN_KERNELS_H_
