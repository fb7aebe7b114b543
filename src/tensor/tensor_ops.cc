#include "tensor/tensor_ops.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "tensor/gemm_kernels.h"

namespace fedcross::ops {
namespace {

using detail::GemmKernels;
using detail::kSmallGemmOps;

// True when the running CPU can execute the given tier's code. The tier
// translation units compile to the generic tier when their ISA flags are
// unavailable, so a tier is usable iff it actually carries its own enum
// (the build got the ISA) and the CPU supports it.
bool TierSupported(const GemmKernels& kernels, SimdTier want) {
  if (kernels.tier != want) return false;  // build fell back to generic
  if (want == SimdTier::kGeneric) return true;
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (want == SimdTier::kAvx2) return __builtin_cpu_supports("x86-64-v3");
  if (want == SimdTier::kAvx512) return __builtin_cpu_supports("x86-64-v4");
  return false;
#else
  return false;
#endif
}

const GemmKernels* DetectKernels() {
  // Explicit pin via the environment, used by benchmarks and CI to compare
  // tiers; an unsupported request falls back to detection.
  if (const char* env = std::getenv("FEDCROSS_SIMD")) {
    if (std::strcmp(env, "generic") == 0 || std::strcmp(env, "scalar") == 0) {
      return &detail::GenericGemmKernels();
    }
    if (std::strcmp(env, "avx2") == 0 &&
        TierSupported(detail::Avx2GemmKernels(), SimdTier::kAvx2)) {
      return &detail::Avx2GemmKernels();
    }
    if (std::strcmp(env, "avx512") == 0 &&
        TierSupported(detail::Avx512GemmKernels(), SimdTier::kAvx512)) {
      return &detail::Avx512GemmKernels();
    }
  }
  if (TierSupported(detail::Avx512GemmKernels(), SimdTier::kAvx512)) {
    return &detail::Avx512GemmKernels();
  }
  if (TierSupported(detail::Avx2GemmKernels(), SimdTier::kAvx2)) {
    return &detail::Avx2GemmKernels();
  }
  return &detail::GenericGemmKernels();
}

// Test override; null means "use startup detection".
std::atomic<const GemmKernels*> g_forced_kernels{nullptr};

const GemmKernels& ActiveKernels() {
  const GemmKernels* forced = g_forced_kernels.load(std::memory_order_relaxed);
  if (forced != nullptr) return *forced;
  static const GemmKernels* detected = DetectKernels();
  return *detected;
}

// Shared beta pass: C = beta * C, with the beta == 1 fast path. Runs before
// the kernels so every kernel is pure-accumulate.
inline void ScaleC(int m, int n, float beta, float* c, int ldc) {
  if (beta == 0.0f) {
    for (int i = 0; i < m; ++i) {
      float* c_row = c + static_cast<std::int64_t>(i) * ldc;
      for (int j = 0; j < n; ++j) c_row[j] = 0.0f;
    }
  } else if (beta != 1.0f) {
    for (int i = 0; i < m; ++i) {
      float* c_row = c + static_cast<std::int64_t>(i) * ldc;
      for (int j = 0; j < n; ++j) c_row[j] *= beta;
    }
  }
}

// One accumulate-only GEMM on the kernel its shape selects: the small rule
// at or below kSmallGemmOps, otherwise the blocked rule, run pack-free where
// GemmDirectPays says the packed panels would not repay their copies. The
// two blocked schedules write the same bytes.
inline void RunGemm(const GemmKernels& kernels, bool trans_a, bool trans_b,
                    int m, int n, int k, float alpha, const float* a, int lda,
                    const float* b, int ldb, float* c, int ldc) {
  if (static_cast<std::int64_t>(m) * n * k <= kSmallGemmOps) {
    kernels.gemm_small(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, c,
                       ldc);
  } else if (!trans_b && detail::GemmDirectPays(m, n, k)) {
    kernels.gemm_direct(trans_a, m, n, k, alpha, a, lda, b, ldb, c, ldc);
  } else {
    kernels.gemm_blocked(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, c,
                         ldc);
  }
}

}  // namespace

namespace detail {
const GemmKernels& TierGemmKernels(SimdTier tier) {
  switch (tier) {
    case SimdTier::kAvx2: return Avx2GemmKernels();
    case SimdTier::kAvx512: return Avx512GemmKernels();
    case SimdTier::kGeneric: break;
  }
  return GenericGemmKernels();
}
}  // namespace detail

SimdTier ActiveSimdTier() { return ActiveKernels().tier; }

const char* SimdTierName(SimdTier tier) {
  switch (tier) {
    case SimdTier::kGeneric: return "generic";
    case SimdTier::kAvx2: return "avx2";
    case SimdTier::kAvx512: return "avx512";
  }
  return "unknown";
}

namespace testing {

bool ForceSimdTier(SimdTier tier) {
  const GemmKernels& kernels = detail::TierGemmKernels(tier);
  if (!TierSupported(kernels, tier)) return false;
  g_forced_kernels.store(&kernels, std::memory_order_relaxed);
  return true;
}

void ResetForcedSimdTier() {
  g_forced_kernels.store(nullptr, std::memory_order_relaxed);
}

}  // namespace testing

void Gemm(bool trans_a, bool trans_b, int m, int n, int k, float alpha,
          const float* a, int lda, const float* b, int ldb, float beta,
          float* c, int ldc) {
  FC_CHECK_GE(m, 0);
  FC_CHECK_GE(n, 0);
  FC_CHECK_GE(k, 0);
  // beta pass; beta == 1 (accumulating layers, e.g. Conv2d::Backward's dW)
  // skips the traversal entirely.
  ScaleC(m, n, beta, c, ldc);
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0f) return;
  RunGemm(ActiveKernels(), trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb,
          c, ldc);
}

void GemmGrouped(bool trans_a, bool trans_b, int m, int n, int k, float alpha,
                 int lda, int ldb, float beta, int ldc,
                 const GemmGroup* groups, int count) {
  FC_CHECK_GE(m, 0);
  FC_CHECK_GE(n, 0);
  FC_CHECK_GE(k, 0);
  FC_CHECK_GE(count, 0);
  for (int g = 0; g < count; ++g) ScaleC(m, n, beta, groups[g].c, ldc);
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0f || count == 0) return;
  const GemmKernels& kernels = ActiveKernels();
  std::int64_t ops = static_cast<std::int64_t>(m) * n * k;
  if (ops <= kSmallGemmOps) {
    // Same shape threshold as Gemm, so each instance runs the kernel the
    // standalone call would have picked. The interleaved kernel pays an
    // L-fold gather of every operand, which only earns its keep where the
    // standalone loop serialises on FP latency: untransposed B with a
    // narrow n (each output element is a long ascending-p chain). Wider
    // shapes and transposed B vectorise fine standalone, so the gather is
    // pure overhead there — measured crossover is n ~ 8-16. Both paths are
    // bit-identical per instance, so this is purely a speed choice.
    const bool interleave_pays = !trans_b && n <= 8;
    if (kernels.gemm_grouped_small != nullptr && count > 1 &&
        interleave_pays) {
      kernels.gemm_grouped_small(trans_a, trans_b, m, n, k, alpha, lda, ldb,
                                 ldc, groups, count);
    } else {
      for (int g = 0; g < count; ++g) {
        kernels.gemm_small(trans_a, trans_b, m, n, k, alpha, groups[g].a, lda,
                           groups[g].b, ldb, groups[g].c, ldc);
      }
    }
  } else {
    // Large instances are compute-bound in the blocked kernel already;
    // batching would only re-pack shared-size panels without reuse.
    for (int g = 0; g < count; ++g) {
      RunGemm(kernels, trans_a, trans_b, m, n, k, alpha, groups[g].a, lda,
              groups[g].b, ldb, groups[g].c, ldc);
    }
  }
}

void GemmAccumulateImages(int images, int m, int n, int k, const float* a,
                          int lda, std::int64_t a_image_stride, const float* b,
                          int ldb, std::int64_t b_image_stride, float* c,
                          int ldc) {
  FC_CHECK_GE(images, 0);
  FC_CHECK_GE(m, 0);
  FC_CHECK_GE(n, 0);
  FC_CHECK_GE(k, 0);
  if (images == 0 || m == 0 || n == 0 || k == 0) return;
  ActiveKernels().gemm_accumulate_images(images, m, n, k, a, lda,
                                         a_image_stride, b, ldb,
                                         b_image_stride, c, ldc);
}

void ConvGrouped(int batch, int out_channels, int out_area, int patch,
                 const ConvGroup* groups, int count) {
  FC_CHECK_GE(batch, 0);
  FC_CHECK_GE(out_channels, 0);
  FC_CHECK_GE(out_area, 0);
  FC_CHECK_GE(patch, 0);
  FC_CHECK_GE(count, 0);
  if (batch == 0 || out_channels == 0 || out_area == 0 || patch == 0 ||
      count == 0) {
    return;
  }
  const GemmKernels& kernels = ActiveKernels();
  // Same per-image shape threshold as Gemm, so each instance runs the
  // kernel the standalone per-image call would have picked; that shared
  // choice is what keeps the grouped path bit-identical per instance. The
  // interleave condition mirrors GemmGrouped's: n here is out_area, so the
  // cross-replica gather only pays on late, spatially-small conv stages
  // (area <= 8), where the standalone loop serialises each output element
  // on a long ascending-patch FP chain. Early wide-area stages vectorise
  // fine standalone, so they take the per-image loop below.
  std::int64_t ops =
      static_cast<std::int64_t>(out_channels) * out_area * patch;
  if (ops <= kSmallGemmOps && out_area <= 8 &&
      kernels.conv_grouped_small != nullptr && count > 1) {
    kernels.conv_grouped_small(batch, out_channels, out_area, patch, groups,
                               count);
    return;
  }
  // Large per-image shapes (or a single replica): the exact standalone
  // calls — Gemm applies the beta == 0 zero-fill and picks small/blocked by
  // the shared threshold.
  const std::int64_t col_size = static_cast<std::int64_t>(patch) * out_area;
  const std::int64_t out_size =
      static_cast<std::int64_t>(out_channels) * out_area;
  for (int b = 0; b < batch; ++b) {
    for (int g = 0; g < count; ++g) {
      Gemm(false, false, out_channels, out_area, patch, 1.0f,
           groups[g].weights, patch, groups[g].columns + b * col_size,
           out_area, 0.0f, groups[g].output + b * out_size, out_area);
    }
  }
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  FC_CHECK_EQ(a.ndim(), 2);
  FC_CHECK_EQ(b.ndim(), 2);
  FC_CHECK_EQ(a.dim(1), b.dim(0));
  int m = a.dim(0);
  int k = a.dim(1);
  int n = b.dim(1);
  Tensor c({m, n});
  Gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f, c.data(),
       n);
  return c;
}

int ConvOutSize(int in_size, int kernel, int stride, int pad) {
  FC_CHECK_GT(stride, 0);
  FC_CHECK_GT(kernel, 0);
  FC_CHECK_GE(pad, 0);
  // Integer division truncates toward zero, so a window larger than the
  // padded input would otherwise come out as one output pixel.
  FC_CHECK_LE(kernel, in_size + 2 * pad)
      << "conv window larger than the padded input: in=" << in_size
      << " kernel=" << kernel << " stride=" << stride << " pad=" << pad;
  return (in_size + 2 * pad - kernel) / stride + 1;
}

namespace {

// ---- Conv lowering --------------------------------------------------------
// Im2Col and Col2Im work on a zero-bordered copy of the image (each plane
// grown by `pad` on every side), so a column row is out_h strided row copies
// with no bounds test. ConvOutSize guarantees every window lies inside the
// bordered planes: (out - 1) * stride + kernel <= in + 2 * pad.

struct Lowering {
  Lowering(int channels, int height, int width, int kernel_h, int kernel_w,
           int stride, int pad, std::int64_t ld)
      : channels(channels),
        kernel_h(kernel_h),
        kernel_w(kernel_w),
        stride(stride),
        out_h(ConvOutSize(height, kernel_h, stride, pad)),
        out_w(ConvOutSize(width, kernel_w, stride, pad)),
        padded_w(width + 2 * pad),
        plane(static_cast<std::int64_t>(height + 2 * pad) * padded_w),
        ld_columns(ld == 0 ? static_cast<std::int64_t>(out_h) * out_w : ld) {
    FC_CHECK_GE(ld_columns, static_cast<std::int64_t>(out_h) * out_w);
  }
  // Offset of column row (c, kh, kw), and of bordered pixel (kh, kw) of
  // plane c: the first pixel that row reads.
  std::int64_t ColumnRow(int c, int kh, int kw) const {
    return ((static_cast<std::int64_t>(c) * kernel_h + kh) * kernel_w + kw) *
           ld_columns;
  }
  std::int64_t Window(int c, int kh, int kw) const {
    return c * plane + static_cast<std::int64_t>(kh) * padded_w + kw;
  }
  int channels, kernel_h, kernel_w, stride;
  int out_h, out_w;
  int padded_w;
  std::int64_t plane;  // floats per bordered channel plane
  std::int64_t ld_columns;
};

// The row copies of every column row, specialised on a square output
// (out_h == out_w == kWidth) and the stride; kWidth == 0 is the generic
// fallback that reads the geometry at runtime. The specialised keys are the
// conv outputs the fcbench workloads train (8x8 images: 8/4/2 wide at
// stride 1, 4/2 at stride 2), measured by BM_Im2Col/BM_Col2Im; on rows that
// short a runtime-length loop costs more than the copies themselves.
template <int kWidth, int kStride>
struct ColumnRows {
  // One stride-1 output row as a single (unaligned) vector: without it the
  // auto-vectoriser interleaves the overlapping kw windows with scalar
  // loads and shuffles, several times slower than plain row moves. The
  // generic width 0 never uses it and gets a 2-lane placeholder.
  typedef float RowVec
      __attribute__((vector_size((kWidth > 0 ? kWidth : 2) * sizeof(float))));
  static constexpr bool kVectorRows = kWidth > 0 && kStride == 1;

  // Column row (c, kh, kw), output row r, column w reads bordered pixel
  // (r * stride + kh, w * stride + kw) of plane c.
  static void Gather(const Lowering& g, const float* __restrict__ padded,
                     float* __restrict__ columns) {
    const int rows = kWidth > 0 ? kWidth : g.out_h;
    const int n = kWidth > 0 ? kWidth : g.out_w;
    const int s = kWidth > 0 ? kStride : g.stride;
    const std::int64_t row_step = static_cast<std::int64_t>(s) * g.padded_w;
    for (int c = 0; c < g.channels; ++c) {
      for (int kh = 0; kh < g.kernel_h; ++kh) {
        for (int kw = 0; kw < g.kernel_w; ++kw) {
          float* dst = columns + g.ColumnRow(c, kh, kw);
          const float* src = padded + g.Window(c, kh, kw);
          for (int r = 0; r < rows; ++r) {
            if constexpr (kVectorRows) {
              __builtin_memcpy(dst + r * n, src + r * row_step,
                               sizeof(RowVec));
            } else {
              for (int w = 0; w < n; ++w) {
                dst[r * n + w] = src[r * row_step + w * s];
              }
            }
          }
        }
      }
    }
  }
  // The adjoint: adds each column entry onto the pixel Gather read it from.
  // A pixel of plane c only receives entries of channel c, one per (kh, kw)
  // at most, so walking (kh, kw, c) adds them in the (c, kh, kw) order of
  // the per-element reference. Putting c innermost also spaces out the
  // overlapping read-modify-writes of neighbouring kw windows, which would
  // otherwise stall on store forwarding.
  static void ScatterAdd(const Lowering& g, const float* __restrict__ columns,
                         float* __restrict__ padded) {
    const int rows = kWidth > 0 ? kWidth : g.out_h;
    const int n = kWidth > 0 ? kWidth : g.out_w;
    const int s = kWidth > 0 ? kStride : g.stride;
    const std::int64_t row_step = static_cast<std::int64_t>(s) * g.padded_w;
    for (int kh = 0; kh < g.kernel_h; ++kh) {
      for (int kw = 0; kw < g.kernel_w; ++kw) {
        for (int c = 0; c < g.channels; ++c) {
          const float* column = columns + g.ColumnRow(c, kh, kw);
          float* dst = padded + g.Window(c, kh, kw);
          for (int r = 0; r < rows; ++r) {
            if constexpr (kVectorRows) {
              RowVec sum, add;
              __builtin_memcpy(&sum, dst + r * row_step, sizeof(RowVec));
              __builtin_memcpy(&add, column + r * n, sizeof(RowVec));
              sum += add;  // lane-wise: the same single rounding per pixel
              __builtin_memcpy(dst + r * row_step, &sum, sizeof(RowVec));
            } else {
              for (int w = 0; w < n; ++w) {
                dst[r * row_step + w * s] += column[r * n + w];
              }
            }
          }
        }
      }
    }
  }
};

struct RowOps {
  void (*gather)(const Lowering&, const float*, float*);
  void (*scatter_add)(const Lowering&, const float*, float*);
};

template <int kWidth, int kStride>
constexpr RowOps RowOpsFor() {
  return {&ColumnRows<kWidth, kStride>::Gather,
          &ColumnRows<kWidth, kStride>::ScatterAdd};
}

RowOps SelectRowOps(const Lowering& g) {
  if (g.out_h == g.out_w && g.stride == 1) {
    switch (g.out_w) {
      case 2: return RowOpsFor<2, 1>();
      case 4: return RowOpsFor<4, 1>();
      case 8: return RowOpsFor<8, 1>();
    }
  }
  if (g.out_h == g.out_w && g.stride == 2) {
    switch (g.out_w) {
      case 2: return RowOpsFor<2, 2>();
      case 4: return RowOpsFor<4, 2>();
    }
  }
  return RowOpsFor<0, 0>();
}

// dst row r = src row r (`width` floats) for r < rows: the image <->
// bordered-interior copies. Specialised on the padded convs' input widths
// in the fcbench workloads (8/4/2) so the short rows do not each pay a
// library call.
template <int kWidth>
void CopyRows(const float* __restrict__ src, std::int64_t src_ld, int rows,
              int width, float* __restrict__ dst, std::int64_t dst_ld) {
  const int n = kWidth > 0 ? kWidth : width;
  for (int r = 0; r < rows; ++r) {
    for (int x = 0; x < n; ++x) dst[r * dst_ld + x] = src[r * src_ld + x];
  }
}

using CopyRowsFn = void (*)(const float*, std::int64_t, int, int, float*,
                            std::int64_t);

CopyRowsFn SelectCopyRows(int width) {
  switch (width) {
    case 2: return &CopyRows<2>;
    case 4: return &CopyRows<4>;
    case 8: return &CopyRows<8>;
    default: return &CopyRows<0>;
  }
}

// The bordered planes, shared by Im2Col and Col2Im (never live at once).
// Thread-local so concurrent training threads never share it; capacity is
// retained, so steady-state calls allocate nothing.
float* BorderedScratch(std::int64_t n) {
  thread_local std::vector<float> planes;
  if (static_cast<std::int64_t>(planes.size()) < n) {
    planes.resize(static_cast<std::size_t>(n));
  }
  return planes.data();
}

}  // namespace

void Im2Col(const float* image, int channels, int height, int width,
            int kernel_h, int kernel_w, int stride, int pad, float* columns,
            std::int64_t ld_columns) {
  const Lowering g(channels, height, width, kernel_h, kernel_w, stride, pad,
                   ld_columns);
  const float* padded = image;  // pad == 0: the image is its own border
  if (pad > 0) {
    float* planes = BorderedScratch(channels * g.plane);
    std::fill_n(planes, channels * g.plane, 0.0f);
    const CopyRowsFn copy = SelectCopyRows(width);
    for (int c = 0; c < channels; ++c) {
      copy(image + static_cast<std::int64_t>(c) * height * width, width,
           height, width, planes + g.Window(c, pad, pad), g.padded_w);
    }
    padded = planes;
  }
  SelectRowOps(g).gather(g, padded, columns);
}

void Col2Im(const float* columns, int channels, int height, int width,
            int kernel_h, int kernel_w, int stride, int pad, float* image,
            std::int64_t ld_columns) {
  const Lowering g(channels, height, width, kernel_h, kernel_w, stride, pad,
                   ld_columns);
  // Sum into zeroed bordered planes, then keep the interior: the border
  // collects exactly the entries Im2Col read as padding.
  float* padded = pad == 0 ? image : BorderedScratch(channels * g.plane);
  std::fill_n(padded, channels * g.plane, 0.0f);
  SelectRowOps(g).scatter_add(g, columns, padded);
  if (pad == 0) return;
  const CopyRowsFn copy = SelectCopyRows(width);
  for (int c = 0; c < channels; ++c) {
    copy(padded + g.Window(c, pad, pad), g.padded_w, height, width,
         image + static_cast<std::int64_t>(c) * height * width, width);
  }
}

void SoftmaxRowsRaw(float* data, int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    float* row = data + static_cast<std::int64_t>(r) * cols;
    float max_value = row[0];
    for (int c = 1; c < cols; ++c) max_value = std::max(max_value, row[c]);
    double total = 0.0;
    for (int c = 0; c < cols; ++c) {
      row[c] = std::exp(row[c] - max_value);
      total += row[c];
    }
    float inv = static_cast<float>(1.0 / total);
    for (int c = 0; c < cols; ++c) row[c] *= inv;
  }
}

void SoftmaxRows(Tensor& logits) {
  FC_CHECK_EQ(logits.ndim(), 2);
  SoftmaxRowsRaw(logits.data(), logits.dim(0), logits.dim(1));
}

int ArgMaxRowRaw(const float* row, int cols) {
  int best = 0;
  for (int c = 1; c < cols; ++c) {
    if (row[c] > row[best]) best = c;
  }
  return best;
}

int ArgMaxRow(const Tensor& t, int row) {
  FC_CHECK_EQ(t.ndim(), 2);
  FC_CHECK_GE(row, 0);
  FC_CHECK_LT(row, t.dim(0));
  int cols = t.dim(1);
  return ArgMaxRowRaw(t.data() + static_cast<std::int64_t>(row) * cols, cols);
}

double CosineSimilarity(const std::vector<float>& x,
                        const std::vector<float>& y) {
  FC_CHECK_EQ(x.size(), y.size());
  // Single fused pass with 4 independent accumulator lanes per reduction so
  // the compiler can vectorize the double-precision sums.
  constexpr std::size_t kLanes = 4;
  double dot[kLanes] = {0.0};
  double norm_x[kLanes] = {0.0};
  double norm_y[kLanes] = {0.0};
  const float* __restrict__ xp = x.data();
  const float* __restrict__ yp = y.data();
  std::size_t size = x.size();
  std::size_t main = size - size % kLanes;
  for (std::size_t i = 0; i < main; i += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      double xv = xp[i + l];
      double yv = yp[i + l];
      dot[l] += xv * yv;
      norm_x[l] += xv * xv;
      norm_y[l] += yv * yv;
    }
  }
  for (std::size_t i = main; i < size; ++i) {
    double xv = xp[i];
    double yv = yp[i];
    dot[0] += xv * yv;
    norm_x[0] += xv * xv;
    norm_y[0] += yv * yv;
  }
  double dot_total = (dot[0] + dot[1]) + (dot[2] + dot[3]);
  double norm_x_total = (norm_x[0] + norm_x[1]) + (norm_x[2] + norm_x[3]);
  double norm_y_total = (norm_y[0] + norm_y[1]) + (norm_y[2] + norm_y[3]);
  return CosineFromGram(dot_total, norm_x_total, norm_y_total);
}

double CosineFromGram(double dot, double norm_x, double norm_y) {
  if (norm_x <= 0.0 || norm_y <= 0.0) return 0.0;
  return dot / (std::sqrt(norm_x) * std::sqrt(norm_y));
}

namespace {

typedef double Double4 __attribute__((vector_size(4 * sizeof(double))));

// Elements t..t+3 widened to doubles: CosineSimilarity's lanes 0..3. Built
// element-wise because GCC lowers that to one widening load, where
// __builtin_convertvector takes two half conversions and a shuffle.
// Returned through a reference: a 32-byte vector returned by value changes
// ABI with -mavx, which a portable build warns about.
inline void Widen4(const float* p, Double4& out) {
  out = Double4{p[0], p[1], p[2], p[3]};
}

// Partners that share each load of the widened chunk: independent
// accumulator chains that hide the add latency.
constexpr int kGramTile = 8;

// acc[p] += wide[t] * ys[p][begin + t] for t in [0, len) in steps of 4, one
// lane per element position: the lane chains of CosineSimilarity's dot loop.
// Every product of two widened floats is exact, so contracting it into an
// FMA rounds like the separate add.
template <int kTile>
void GramTile(const double* __restrict__ wide, const float* const* ys,
              std::size_t begin, std::size_t len, Double4* acc) {
  Double4 a[kTile];
  const float* y[kTile];
  for (int p = 0; p < kTile; ++p) {
    a[p] = acc[p];
    y[p] = ys[p] + begin;
  }
  for (std::size_t t = 0; t < len; t += 4) {
    Double4 x;
    std::memcpy(&x, wide + t, sizeof(x));
    for (int p = 0; p < kTile; ++p) {
      Double4 yw;
      Widen4(y[p] + t, yw);
      a[p] += x * yw;
    }
  }
  for (int p = 0; p < kTile; ++p) acc[p] = a[p];
}

// kGramTiles[w - 1] runs a tile of w partners: full tiles and the row's
// last, partial one.
constexpr void (*kGramTiles[])(const double*, const float* const*,
                               std::size_t, std::size_t, Double4*) = {
    GramTile<1>, GramTile<2>, GramTile<3>, GramTile<4>,
    GramTile<5>, GramTile<6>, GramTile<7>, GramTile<8>};
static_assert(std::size(kGramTiles) == kGramTile);

}  // namespace

void CosineGramRow(const float* const* models, int k, int row, std::size_t n,
                   double* out) {
  FC_CHECK_GE(row, 0);
  FC_CHECK_LT(row, k);
  // Partner 0 is the row model itself: its chain is the squared norm.
  const int partners = k - row;
  const float* const* ys = models + row;
  const float* x = models[row];
  std::vector<Double4> acc(partners, Double4{});
  alignas(64) double wide[kCosineGramChunk];
  const std::size_t main = n - n % 4;
  for (std::size_t begin = 0; begin < main; begin += kCosineGramChunk) {
    const std::size_t len = std::min(kCosineGramChunk, main - begin);
    for (std::size_t t = 0; t < len; t += 4) {
      Double4 v;
      Widen4(x + begin + t, v);
      std::memcpy(wide + t, &v, sizeof(v));
    }
    for (int p = 0; p < partners; p += kGramTile) {
      const int width = std::min(kGramTile, partners - p);
      kGramTiles[width - 1](wide, ys + p, begin, len, &acc[p]);
    }
  }
  for (int p = 0; p < partners; ++p) {
    double lanes[4];
    std::memcpy(lanes, &acc[p], sizeof(lanes));
    const float* y = ys[p];
    for (std::size_t i = main; i < n; ++i) {
      lanes[0] += static_cast<double>(x[i]) * y[i];
    }
    out[row + p] = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  }
}

}  // namespace fedcross::ops
