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

void TanhForward(const float* x, float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] = std::tanh(x[i]);
}

void TanhBackward(const float* y, const float* dy, float* dx, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    dx[i] = dy[i] * (1.0f - y[i] * y[i]);
  }
}

void SigmoidForward(const float* x, float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] = 1.0f / (1.0f + std::exp(-x[i]));
  }
}

void SigmoidBackward(const float* y, const float* dy, float* dx,
                     std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    dx[i] = dy[i] * (y[i] * (1.0f - y[i]));
  }
}

void DropoutMask(util::Rng& rng, float rate, float scale, float* mask,
                 std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    mask[i] = rng.Uniform() < rate ? 0.0f : scale;
  }
}

void DropoutApply(const float* x, const float* mask, float* y,
                  std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] = x[i] * mask[i];
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

void GroupNormForward(const float* x, float* y, float* xhat, float* inv_std,
                      const float* gamma, const float* beta, int batch,
                      int channels, int groups, int area, float eps) {
  int chans_per_group = channels / groups;
  std::int64_t group_size = static_cast<std::int64_t>(chans_per_group) * area;
  for (int b = 0; b < batch; ++b) {
    for (int g = 0; g < groups; ++g) {
      std::int64_t base =
          (static_cast<std::int64_t>(b) * channels + g * chans_per_group) *
          area;
      double mean = 0.0;
      for (std::int64_t i = 0; i < group_size; ++i) mean += x[base + i];
      mean /= group_size;
      double var = 0.0;
      for (std::int64_t i = 0; i < group_size; ++i) {
        double d = x[base + i] - mean;
        var += d * d;
      }
      var /= group_size;
      float istd = static_cast<float>(1.0 / std::sqrt(var + eps));
      inv_std[static_cast<std::size_t>(b) * groups + g] = istd;
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
  for (int b = 0; b < batch; ++b) {
    for (int g = 0; g < groups; ++g) {
      std::int64_t base =
          (static_cast<std::int64_t>(b) * channels + g * chans_per_group) *
          area;
      float istd = inv_std[static_cast<std::size_t>(b) * groups + g];

      // Accumulate the two per-group reductions of dxhat = dy * gamma.
      double sum_dxhat = 0.0;
      double sum_dxhat_xhat = 0.0;
      for (int c = 0; c < chans_per_group; ++c) {
        int channel = g * chans_per_group + c;
        std::int64_t offset = base + static_cast<std::int64_t>(c) * area;
        for (int i = 0; i < area; ++i) {
          float dxhat = dy[offset + i] * gamma[channel];
          sum_dxhat += dxhat;
          sum_dxhat_xhat += static_cast<double>(dxhat) * xhat[offset + i];
        }
      }
      float mean_dxhat = static_cast<float>(sum_dxhat / group_size);
      float mean_dxhat_xhat = static_cast<float>(sum_dxhat_xhat / group_size);

      for (int c = 0; c < chans_per_group; ++c) {
        int channel = g * chans_per_group + c;
        std::int64_t offset = base + static_cast<std::int64_t>(c) * area;
        for (int i = 0; i < area; ++i) {
          float dyv = dy[offset + i];
          float xh = xhat[offset + i];
          dgamma[channel] += dyv * xh;
          dbeta[channel] += dyv;
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
