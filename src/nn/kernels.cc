#include "nn/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/tensor_ops.h"
#include "util/check.h"

namespace fedcross::nn::kernels {

void ReluForward(const float* x, float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    float v = x[i];
    y[i] = v < 0.0f ? 0.0f : v;
  }
}

void ReluBackward(const float* y, const float* dy, float* dx, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    dx[i] = y[i] <= 0.0f ? 0.0f : dy[i];
  }
}

void BiasAddRows(float* y, const float* bias, int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    for (int j = 0; j < cols; ++j) {
      y[static_cast<std::int64_t>(r) * cols + j] += bias[j];
    }
  }
}

void BiasGradRows(const float* dy, float* dbias, int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    for (int j = 0; j < cols; ++j) {
      dbias[j] += dy[static_cast<std::int64_t>(r) * cols + j];
    }
  }
}

void ConvBiasAdd(float* y, const float* bias, int batch, int channels,
                 int area) {
  for (int b = 0; b < batch; ++b) {
    for (int c = 0; c < channels; ++c) {
      float* plane = y + (static_cast<std::int64_t>(b) * channels + c) * area;
      for (int i = 0; i < area; ++i) plane[i] += bias[c];
    }
  }
}

void ConvBiasGradImage(const float* dy_image, float* dbias, int channels,
                       int area) {
  for (int c = 0; c < channels; ++c) {
    const float* plane = dy_image + static_cast<std::int64_t>(c) * area;
    double acc = 0.0;
    for (int i = 0; i < area; ++i) acc += plane[i];
    dbias[c] += static_cast<float>(acc);
  }
}

void MaxPoolForward(const float* x, float* y, std::int64_t* argmax, int batch,
                    int channels, int height, int width, int out_h, int out_w,
                    int kernel, int stride) {
  std::int64_t out_index = 0;
  for (int b = 0; b < batch; ++b) {
    for (int c = 0; c < channels; ++c) {
      const float* plane =
          x + (static_cast<std::int64_t>(b) * channels + c) * height * width;
      std::int64_t plane_offset =
          (static_cast<std::int64_t>(b) * channels + c) * height * width;
      for (int oh = 0; oh < out_h; ++oh) {
        for (int ow = 0; ow < out_w; ++ow) {
          int h0 = oh * stride;
          int w0 = ow * stride;
          float best = plane[h0 * width + w0];
          int best_h = h0;
          int best_w = w0;
          for (int kh = 0; kh < kernel; ++kh) {
            int ih = h0 + kh;
            if (ih >= height) break;
            for (int kw = 0; kw < kernel; ++kw) {
              int iw = w0 + kw;
              if (iw >= width) break;
              float value = plane[ih * width + iw];
              if (value > best) {
                best = value;
                best_h = ih;
                best_w = iw;
              }
            }
          }
          y[out_index] = best;
          argmax[out_index] = plane_offset + best_h * width + best_w;
          ++out_index;
        }
      }
    }
  }
}

void MaxPoolBackward(const float* dy, const std::int64_t* argmax,
                     std::int64_t out_numel, float* dx,
                     std::int64_t in_numel) {
  for (std::int64_t i = 0; i < in_numel; ++i) dx[i] = 0.0f;
  for (std::int64_t i = 0; i < out_numel; ++i) {
    dx[argmax[i]] += dy[i];
  }
}

void GlobalAvgPoolForward(const float* x, float* y, int batch, int channels,
                          int area) {
  for (int b = 0; b < batch; ++b) {
    for (int c = 0; c < channels; ++c) {
      const float* plane =
          x + (static_cast<std::int64_t>(b) * channels + c) * area;
      double acc = 0.0;
      for (int i = 0; i < area; ++i) acc += plane[i];
      y[static_cast<std::int64_t>(b) * channels + c] =
          static_cast<float>(acc / area);
    }
  }
}

void GlobalAvgPoolBackward(const float* dy, float* dx, int batch, int channels,
                           int area) {
  float inv_area = 1.0f / static_cast<float>(area);
  for (int b = 0; b < batch; ++b) {
    for (int c = 0; c < channels; ++c) {
      float g = dy[static_cast<std::int64_t>(b) * channels + c] * inv_area;
      float* plane = dx + (static_cast<std::int64_t>(b) * channels + c) * area;
      for (int i = 0; i < area; ++i) plane[i] = g;
    }
  }
}

namespace {

// GroupNorm's reductions are serial chains (double statistics, float
// dgamma/dbeta), so each waits on its own adds. Its (sample, group) blocks
// are contiguous and independent, and dgamma/dbeta keep one chain per
// channel, so kNormChains chains run side by side, one per lane of a vector
// accumulator. Every chain keeps its element order and its expression: a
// lane's multiply-add contracts into an FMA exactly when the scalar one
// does, so every value keeps its bits. The lanes are spelled as vector
// types rather than left to the vectoriser, which may turn a single chain
// into a vector multiply feeding in-order scalar adds and so drop its FMA.
constexpr int kNormChains = 8;
typedef float NormLanesF
    __attribute__((vector_size(kNormChains * sizeof(float))));
typedef double NormLanesD
    __attribute__((vector_size(kNormChains * sizeof(double))));

// Lane j reads rows[j][i]; a lane past the live ones re-reads the last
// live row and its result is dropped. (Lane vectors pass by reference
// throughout: a by-value vector changes the calling convention between
// SIMD tiers.)
inline void LoadLanes(const float* const (&rows)[kNormChains], std::int64_t i,
                      NormLanesF& lanes) {
  lanes = NormLanesF{rows[0][i], rows[1][i], rows[2][i], rows[3][i],
                     rows[4][i], rows[5][i], rows[6][i], rows[7][i]};
}

// cols[t][j] = rows[j][i + t] for t < kNormChains: the next eight
// elements of every lane, as eight lane vectors. Eight row loads and an 8x8
// transpose cost far less than building each lane vector from scalars.
inline void LoadColumns(const float* const (&rows)[kNormChains],
                        std::int64_t i, NormLanesF (&cols)[kNormChains]) {
  typedef std::int32_t Index __attribute__((vector_size(sizeof(NormLanesF))));
  NormLanesF r[kNormChains] = {};
  for (int j = 0; j < kNormChains; ++j) {
    std::memcpy(&r[j], rows[j] + i, sizeof(NormLanesF));
  }
  NormLanesF pairs[kNormChains];  // rows 2k, 2k+1 interleaved
  for (int k = 0; k < 4; ++k) {
    pairs[2 * k] = __builtin_shuffle(r[2 * k], r[2 * k + 1],
                                     Index{0, 8, 1, 9, 4, 12, 5, 13});
    pairs[2 * k + 1] = __builtin_shuffle(r[2 * k], r[2 * k + 1],
                                         Index{2, 10, 3, 11, 6, 14, 7, 15});
  }
  NormLanesF quads[kNormChains];  // four rows per 128-bit half
  for (int k = 0; k < 2; ++k) {
    for (int h = 0; h < 2; ++h) {
      const NormLanesF& a = pairs[4 * k + h];
      const NormLanesF& b = pairs[4 * k + 2 + h];
      quads[4 * k + 2 * h] =
          __builtin_shuffle(a, b, Index{0, 1, 8, 9, 4, 5, 12, 13});
      quads[4 * k + 2 * h + 1] =
          __builtin_shuffle(a, b, Index{2, 3, 10, 11, 6, 7, 14, 15});
    }
  }
  for (int t = 0; t < 4; ++t) {
    cols[t] = __builtin_shuffle(quads[t], quads[4 + t],
                                Index{0, 1, 2, 3, 8, 9, 10, 11});
    cols[4 + t] = __builtin_shuffle(quads[t], quads[4 + t],
                                    Index{4, 5, 6, 7, 12, 13, 14, 15});
  }
}

// Row pointers of `width` live lanes, `stride` floats apart from `first`.
inline void LaneRows(const float* first, std::int64_t stride, int width,
                     const float* (&rows)[kNormChains]) {
  for (int j = 0; j < kNormChains; ++j) {
    rows[j] = first + std::min(j, width - 1) * stride;
  }
}

// Mean and variance of `width` consecutive (sample, group) blocks of `size`
// floats starting at x.
void GroupMoments(const float* x, std::int64_t size, int width, double* mean,
                  double* var) {
  const float* rows[kNormChains] = {};
  LaneRows(x, size, width, rows);
  NormLanesF cols[kNormChains] = {};
  NormLanesD m = {};
  auto add = [&](const NormLanesF& lanes) {
    m += __builtin_convertvector(lanes, NormLanesD);
  };
  std::int64_t i = 0;
  for (; i + kNormChains <= size; i += kNormChains) {
    LoadColumns(rows, i, cols);
    for (int t = 0; t < kNormChains; ++t) add(cols[t]);
  }
  for (; i < size; ++i) {
    LoadLanes(rows, i, cols[0]);
    add(cols[0]);
  }
  m /= static_cast<double>(size);
  NormLanesD v = {};
  auto add_square = [&](const NormLanesF& lanes) {
    NormLanesD d = __builtin_convertvector(lanes, NormLanesD) - m;
    v += d * d;
  };
  for (i = 0; i + kNormChains <= size; i += kNormChains) {
    LoadColumns(rows, i, cols);
    for (int t = 0; t < kNormChains; ++t) add_square(cols[t]);
  }
  for (; i < size; ++i) {
    LoadLanes(rows, i, cols[0]);
    add_square(cols[0]);
  }
  v /= static_cast<double>(size);
  for (int j = 0; j < width; ++j) {
    mean[j] = m[j];
    var[j] = v[j];
  }
}

// Sums of dxhat = dy * gamma and of dxhat * xhat over `width` consecutive
// blocks starting at block `first` (dy and xhat point at its first element).
void GroupGradSums(const float* dy, const float* xhat, const float* gamma,
                   int first, int width, int groups, int chans_per_group,
                   int area, double* sum_dxhat, double* sum_dxhat_xhat) {
  const std::int64_t size = static_cast<std::int64_t>(chans_per_group) * area;
  const float* dy_rows[kNormChains] = {};
  const float* xhat_rows[kNormChains] = {};
  LaneRows(dy, size, width, dy_rows);
  LaneRows(xhat, size, width, xhat_rows);
  const float* gamma_rows[kNormChains] = {};  // each lane's channel group
  for (int j = 0; j < kNormChains; ++j) {
    const int block = first + std::min(j, width - 1);
    gamma_rows[j] = gamma + (block % groups) * chans_per_group;
  }
  NormLanesD s1 = {};
  NormLanesD s2 = {};
  // Element e of a block is pixel e % area of its channel e / area.
  int c = 0;
  std::int64_t channel_end = area;
  NormLanesF scale = {};
  LoadLanes(gamma_rows, 0, scale);
  auto add = [&](std::int64_t e, const NormLanesF& dyv,
                 const NormLanesF& xh) {
    if (e == channel_end) {
      LoadLanes(gamma_rows, ++c, scale);
      channel_end += area;
    }
    NormLanesF dxhat = dyv * scale;
    NormLanesD wide = __builtin_convertvector(dxhat, NormLanesD);
    s1 += wide;
    s2 += wide * __builtin_convertvector(xh, NormLanesD);
  };
  NormLanesF dy_cols[kNormChains] = {};
  NormLanesF xhat_cols[kNormChains] = {};
  std::int64_t e = 0;
  for (; e + kNormChains <= size; e += kNormChains) {
    LoadColumns(dy_rows, e, dy_cols);
    LoadColumns(xhat_rows, e, xhat_cols);
    for (int t = 0; t < kNormChains; ++t) add(e + t, dy_cols[t], xhat_cols[t]);
  }
  for (; e < size; ++e) {
    LoadLanes(dy_rows, e, dy_cols[0]);
    LoadLanes(xhat_rows, e, xhat_cols[0]);
    add(e, dy_cols[0], xhat_cols[0]);
  }
  for (int j = 0; j < width; ++j) {
    sum_dxhat[j] = s1[j];
    sum_dxhat_xhat[j] = s2[j];
  }
}

// dgamma/dbeta of `width` consecutive channels: one chain per channel in
// (sample, pixel) order. dy and xhat point at the first channel's plane of
// sample 0.
void ChannelParamGrads(const float* dy, const float* xhat, int width,
                       int batch, int channels, int area, float* dgamma,
                       float* dbeta) {
  NormLanesF g = {};
  NormLanesF bsum = {};
  for (int j = 0; j < width; ++j) {
    g[j] = dgamma[j];
    bsum[j] = dbeta[j];
  }
  auto add = [&](const NormLanesF& dyv, const NormLanesF& xh) {
    g += dyv * xh;
    bsum += dyv;
  };
  const std::int64_t sample = static_cast<std::int64_t>(channels) * area;
  NormLanesF dy_cols[kNormChains] = {};
  NormLanesF xhat_cols[kNormChains] = {};
  for (int b = 0; b < batch; ++b) {
    const float* dy_rows[kNormChains] = {};
    const float* xhat_rows[kNormChains] = {};
    LaneRows(dy + b * sample, area, width, dy_rows);
    LaneRows(xhat + b * sample, area, width, xhat_rows);
    int i = 0;
    for (; i + kNormChains <= area; i += kNormChains) {
      LoadColumns(dy_rows, i, dy_cols);
      LoadColumns(xhat_rows, i, xhat_cols);
      for (int t = 0; t < kNormChains; ++t) add(dy_cols[t], xhat_cols[t]);
    }
    for (; i < area; ++i) {
      LoadLanes(dy_rows, i, dy_cols[0]);
      LoadLanes(xhat_rows, i, xhat_cols[0]);
      add(dy_cols[0], xhat_cols[0]);
    }
  }
  for (int j = 0; j < width; ++j) {
    dgamma[j] = g[j];
    dbeta[j] = bsum[j];
  }
}

}  // namespace

void GroupNormForward(const float* x, float* y, float* xhat, float* inv_std,
                      const float* gamma, const float* beta, int batch,
                      int channels, int groups, int area, float eps) {
  int chans_per_group = channels / groups;
  std::int64_t group_size = static_cast<std::int64_t>(chans_per_group) * area;
  const int blocks = batch * groups;  // block b * groups + g, contiguous
  for (int first = 0; first < blocks; first += kNormChains) {
    const int width = std::min(kNormChains, blocks - first);
    double means[kNormChains] = {};
    double vars[kNormChains] = {};
    GroupMoments(x + first * group_size, group_size, width, means, vars);
    for (int j = 0; j < width; ++j) {
      const int block = first + j;
      const int g = block % groups;
      const std::int64_t base = block * group_size;
      const double mean = means[j];
      float istd = static_cast<float>(1.0 / std::sqrt(vars[j] + eps));
      inv_std[block] = istd;
      for (int c = 0; c < chans_per_group; ++c) {
        int channel = g * chans_per_group + c;
        std::int64_t offset = base + static_cast<std::int64_t>(c) * area;
        for (int i = 0; i < area; ++i) {
          float normalized =
              (x[offset + i] - static_cast<float>(mean)) * istd;
          xhat[offset + i] = normalized;
          y[offset + i] = gamma[channel] * normalized + beta[channel];
        }
      }
    }
  }
}

void GroupNormBackward(const float* dy, const float* xhat,
                       const float* inv_std, const float* gamma, float* dgamma,
                       float* dbeta, float* dx, int batch, int channels,
                       int groups, int area) {
  int chans_per_group = channels / groups;
  std::int64_t group_size = static_cast<std::int64_t>(chans_per_group) * area;

  // dgamma/dbeta first: every read of dy precedes the writes of dx, so dx
  // may alias dy.
  for (int first = 0; first < channels; first += kNormChains) {
    const int width = std::min(kNormChains, channels - first);
    const std::int64_t plane = static_cast<std::int64_t>(first) * area;
    ChannelParamGrads(dy + plane, xhat + plane, width, batch, channels, area,
                      dgamma + first, dbeta + first);
  }

  const int blocks = batch * groups;
  for (int first = 0; first < blocks; first += kNormChains) {
    const int width = std::min(kNormChains, blocks - first);
    // The two per-group reductions of dxhat = dy * gamma.
    double sums_dxhat[kNormChains] = {};
    double sums_dxhat_xhat[kNormChains] = {};
    const std::int64_t start = first * group_size;
    GroupGradSums(dy + start, xhat + start, gamma, first, width, groups,
                  chans_per_group, area, sums_dxhat, sums_dxhat_xhat);
    for (int j = 0; j < width; ++j) {
      const int block = first + j;
      const int g = block % groups;
      const std::int64_t base = block * group_size;
      float istd = inv_std[block];
      float mean_dxhat = static_cast<float>(sums_dxhat[j] / group_size);
      float mean_dxhat_xhat =
          static_cast<float>(sums_dxhat_xhat[j] / group_size);
      for (int c = 0; c < chans_per_group; ++c) {
        int channel = g * chans_per_group + c;
        std::int64_t offset = base + static_cast<std::int64_t>(c) * area;
        for (int i = 0; i < area; ++i) {
          float dyv = dy[offset + i];
          float xh = xhat[offset + i];
          float dxhat = dyv * gamma[channel];
          dx[offset + i] = istd * (dxhat - mean_dxhat - xh * mean_dxhat_xhat);
        }
      }
    }
  }
}

void Add(const float* a, const float* b, float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] = a[i] + b[i];
}

namespace {
inline float SigmoidScalar(float x) { return 1.0f / (1.0f + std::exp(-x)); }
}  // namespace

void LstmGateForward(float* z, const float* c_prev, float* c, float* h,
                     int batch, int hidden) {
  int h4 = 4 * hidden;
  for (int b = 0; b < batch; ++b) {
    float* row = z + static_cast<std::int64_t>(b) * h4;
    std::int64_t base = static_cast<std::int64_t>(b) * hidden;
    for (int j = 0; j < hidden; ++j) {
      float i_gate = SigmoidScalar(row[j]);
      float f_gate = SigmoidScalar(row[hidden + j]);
      float g_gate = std::tanh(row[2 * hidden + j]);
      float o_gate = SigmoidScalar(row[3 * hidden + j]);
      row[j] = i_gate;
      row[hidden + j] = f_gate;
      row[2 * hidden + j] = g_gate;
      row[3 * hidden + j] = o_gate;
      float c_new =
          f_gate * (c_prev ? c_prev[base + j] : 0.0f) + i_gate * g_gate;
      c[base + j] = c_new;
      h[base + j] = o_gate * std::tanh(c_new);
    }
  }
}

void LstmGateBackward(const float* gates, const float* cell,
                      const float* cell_prev, const float* dh, float* dc,
                      float* dz, int batch, int hidden) {
  int h4 = 4 * hidden;
  for (int b = 0; b < batch; ++b) {
    std::int64_t base = static_cast<std::int64_t>(b) * hidden;
    const float* grow = gates + static_cast<std::int64_t>(b) * h4;
    float* dzrow = dz + static_cast<std::int64_t>(b) * h4;
    for (int j = 0; j < hidden; ++j) {
      float i_gate = grow[j];
      float f_gate = grow[hidden + j];
      float g_gate = grow[2 * hidden + j];
      float o_gate = grow[3 * hidden + j];
      float tanh_c = std::tanh(cell[base + j]);
      float dh_val = dh[base + j];

      float dc_val = dc[base + j] + dh_val * o_gate * (1.0f - tanh_c * tanh_c);
      float c_prev = cell_prev ? cell_prev[base + j] : 0.0f;

      // Pre-activation gate gradients.
      dzrow[j] = dc_val * g_gate * i_gate * (1.0f - i_gate);
      dzrow[hidden + j] = dc_val * c_prev * f_gate * (1.0f - f_gate);
      dzrow[2 * hidden + j] = dc_val * i_gate * (1.0f - g_gate * g_gate);
      dzrow[3 * hidden + j] = dh_val * tanh_c * o_gate * (1.0f - o_gate);

      dc[base + j] = dc_val * f_gate;  // becomes dc_{t-1}
    }
  }
}

void EmbeddingGather(const float* ids_f, std::int64_t tokens, int vocab,
                     const float* table, int embed, std::int64_t* ids,
                     float* y) {
  for (std::int64_t i = 0; i < tokens; ++i) {
    int id = static_cast<int>(ids_f[i]);
    FC_CHECK_GE(id, 0);
    FC_CHECK_LT(id, vocab);
    ids[i] = id;
    std::memcpy(y + i * embed, table + static_cast<std::int64_t>(id) * embed,
                embed * sizeof(float));
  }
}

void EmbeddingScatterAdd(const std::int64_t* ids, std::int64_t tokens,
                         const float* dy, int embed, float* table_grad) {
  for (std::int64_t i = 0; i < tokens; ++i) {
    float* row = table_grad + ids[i] * embed;
    const float* src = dy + i * embed;
    for (int d = 0; d < embed; ++d) row[d] += src[d];
  }
}

void CrossEntropyInPlace(float* probs, int batch, int classes,
                         const int* labels, bool compute_grad, float* loss,
                         int* correct) {
  ops::SoftmaxRowsRaw(probs, batch, classes);
  double total_loss = 0.0;
  int correct_count = 0;
  for (int b = 0; b < batch; ++b) {
    int label = labels[b];
    FC_CHECK_GE(label, 0);
    FC_CHECK_LT(label, classes);
    const float* row = probs + static_cast<std::int64_t>(b) * classes;
    total_loss -= std::log(std::max(row[label], 1e-12f));
    if (ops::ArgMaxRowRaw(row, classes) == label) ++correct_count;
  }
  *loss = static_cast<float>(total_loss / batch);
  *correct = correct_count;

  if (compute_grad) {
    float inv_batch = 1.0f / static_cast<float>(batch);
    for (int b = 0; b < batch; ++b) {
      float* row = probs + static_cast<std::int64_t>(b) * classes;
      row[labels[b]] -= 1.0f;
      for (int c = 0; c < classes; ++c) row[c] *= inv_batch;
    }
  }
}

}  // namespace fedcross::nn::kernels
