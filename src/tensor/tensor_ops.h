#ifndef FEDCROSS_TENSOR_TENSOR_OPS_H_
#define FEDCROSS_TENSOR_TENSOR_OPS_H_

#include "tensor/tensor.h"

namespace fedcross::ops {

// ---------------------------------------------------------------------------
// SIMD tier dispatch
//
// The GEMM kernels are compiled three times — generic (the project's
// default flags), AVX2+FMA (-march=x86-64-v3) and AVX-512
// (-march=x86-64-v4) — and the widest tier the CPU supports is selected
// once at startup. The environment variable FEDCROSS_SIMD
// (generic|avx2|avx512) pins a tier explicitly; requesting an unsupported
// tier falls back to detection. The generic tier on a portable build is
// bit-identical to the pre-tier code path.
// ---------------------------------------------------------------------------
enum class SimdTier { kGeneric = 0, kAvx2 = 1, kAvx512 = 2 };

// The tier every Gemm/GemmGrouped call dispatches to.
SimdTier ActiveSimdTier();
const char* SimdTierName(SimdTier tier);

namespace testing {
// Pins the dispatch tier for equivalence tests. Returns false (and leaves
// the dispatch unchanged) when the tier is not available on this
// build/CPU. Not thread-safe; call only from single-threaded test setup.
bool ForceSimdTier(SimdTier tier);
// Restores startup detection (including the FEDCROSS_SIMD override).
void ResetForcedSimdTier();
}  // namespace testing

// General matrix multiply on raw row-major buffers:
//   C(m,n) = alpha * op(A)(m,k) * op(B)(k,n) + beta * C(m,n)
// where op(X) is X or X^T as selected by trans_a / trans_b. Leading
// dimensions are those of the *stored* (untransposed) matrices.
void Gemm(bool trans_a, bool trans_b, int m, int n, int k, float alpha,
          const float* a, int lda, const float* b, int ldb, float beta,
          float* c, int ldc);

// One instance of a grouped GEMM: the per-replica operand pointers. All
// instances of a group share shape, trans flags, leading dimensions, alpha
// and beta.
struct GemmGroup {
  const float* a = nullptr;
  const float* b = nullptr;
  float* c = nullptr;
};

// Runs `count` independent GEMMs of one shape — the same-op-across-replicas
// call the cross-replica batched executor makes. Guarantee: instance i's
// output is bit-identical to Gemm() on (groups[i].a, groups[i].b,
// groups[i].c) alone. Small problems run replica-interleaved across SIMD
// lanes (on FMA tiers); large problems loop the blocked kernel, which is
// already compute-bound per instance.
void GemmGrouped(bool trans_a, bool trans_b, int m, int n, int k, float alpha,
                 int lda, int ldb, float beta, int ldc,
                 const GemmGroup* groups, int count);

// C += sum_b A_b * B_b^T over `images` blocks at fixed strides: A_b =
// a + b * a_image_stride (m x k, leading dimension lda), B_b = b +
// b * b_image_stride (n x k, leading dimension ldb). The conv backward's
// weight gradient of a mini-batch in one call (A_b = dY_b, B_b =
// columns_b). Guarantee: exactly the bytes of the per-image loop
// Gemm(false, true, m, n, k, 1, A_b, lda, B_b, ldb, 1, C, ldc) for
// b = 0..images-1, so each image follows the rule its own m*n*k selects.
void GemmAccumulateImages(int images, int m, int n, int k, const float* a,
                          int lda, std::int64_t a_image_stride, const float* b,
                          int ldb, std::int64_t b_image_stride, float* c,
                          int ldc);

// One instance of a grouped conv forward: the per-replica operand pointers.
// `columns` holds the caller-filled im2col patches for the whole mini-batch
// ([batch, patch * out_area], kept for the backward pass) and `output` the
// pre-bias conv result ([batch, out_channels * out_area]).
struct ConvGroup {
  const float* weights = nullptr;  // [out_channels, patch]
  const float* columns = nullptr;  // [batch, patch * out_area]
  float* output = nullptr;         // [batch, out_channels * out_area]
};

// Runs, for every instance, the per-image GEMM chain of the conv forward:
//   output_b = weights * columns_b      (b = 0..batch-1, alpha = 1, beta = 0)
// Guarantee: instance i's output is bit-identical to per-image Gemm() calls
// on instance i alone. Small per-image shapes run replica-interleaved across
// SIMD lanes with the weight interleave hoisted out of the image loop (the
// weights are the only operand shared by all batch images); large shapes
// loop the blocked kernel, which is already compute-bound per instance.
void ConvGrouped(int batch, int out_channels, int out_area, int patch,
                 const ConvGroup* groups, int count);

// 2-d tensor product: result(m,n) = a(m,k) * b(k,n).
Tensor MatMul(const Tensor& a, const Tensor& b);

// Unrolls conv patches of a single image (channels x height x width) into a
// column matrix of (channels*kh*kw) rows — row (c, kh, kw) — by
// (out_h*out_w) columns, zero-padding the borders. out_h/out_w follow
// ConvOutSize. Row r starts at columns + r * ld_columns; ld_columns == 0
// means dense rows (out_h*out_w), and a wider ld_columns lets B images sit
// side by side in one [patch, B*out_area] matrix (image b at column offset
// b*out_area) for a batch-wide GEMM. Writes exactly the out_h*out_w leading
// entries of every row and nothing else.
void Im2Col(const float* image, int channels, int height, int width,
            int kernel_h, int kernel_w, int stride, int pad, float* columns,
            std::int64_t ld_columns = 0);

// Adjoint of Im2Col: sums every column entry back onto the pixel it was
// read from and OVERWRITES the image with the result (the image's prior
// contents are ignored, so callers need not zero it). Per pixel the sum
// starts at +0 and adds contributions in (c, kh, kw, oh, ow) order, the
// same chain as accumulating into a pre-zeroed image. ld_columns as in
// Im2Col.
void Col2Im(const float* columns, int channels, int height, int width,
            int kernel_h, int kernel_w, int stride, int pad, float* image,
            std::int64_t ld_columns = 0);

// Output spatial size for a conv/pool dimension. The window must fit the
// padded input (kernel <= in_size + 2*pad); anything else aborts, in every
// build, rather than truncating to a size Im2Col would read past.
int ConvOutSize(int in_size, int kernel, int stride, int pad);

// Numerically-stable in-place softmax over the last dimension of a 2-d
// tensor (each row becomes a probability distribution).
void SoftmaxRows(Tensor& logits);

// Raw-buffer form of SoftmaxRows: `data` is rows x cols, row-major. The
// Tensor overload forwards here, so arena-resident logits (the plan
// executor) and Tensor logits (the layer path) take the same code path.
void SoftmaxRowsRaw(float* data, int rows, int cols);

// Index of the maximum element in `row` of a 2-d tensor.
int ArgMaxRow(const Tensor& t, int row);

// Raw-buffer form of ArgMaxRow over one row of `cols` floats.
int ArgMaxRowRaw(const float* row, int cols);

// Cosine similarity between two equally-sized flat vectors; 0 if either has
// zero norm. This is the Similarity(.) measure of the paper (Section
// III-B1) used by the highest/lowest-similarity CoModelSel strategies.
double CosineSimilarity(const std::vector<float>& x,
                        const std::vector<float>& y);

// CosineSimilarity's last step: the similarity from the reduced dot product
// and the two squared norms; 0 if either norm is not positive.
double CosineFromGram(double dot, double norm_x, double norm_y);

// Row `row` of the Gram matrix of k models of n floats each, reduced exactly
// as CosineSimilarity reduces it: out[j], for j in [row, k), is the dot
// product of models[row] and models[j] over four double lanes (lane l takes
// elements 4t + l in ascending t, the n % 4 tail goes to lane 0), summed
// (l0 + l1) + (l2 + l3). out[row] is the squared norm. So
// CosineFromGram(out_i[j], out_i[i], out_j[j]) is CosineSimilarity(models[i],
// models[j]) bit for bit. models[row] is widened once per cache-sized chunk
// and a register tile of partners streams past it, so a row reads each
// model once instead of once per pair.
void CosineGramRow(const float* const* models, int k, int row, std::size_t n,
                   double* out);

// CosineGramRow widens models[row] this many elements at a time (64 KB of
// doubles, L2-resident). Exposed so tests can straddle the chunk edges.
inline constexpr std::size_t kCosineGramChunk = 8192;

}  // namespace fedcross::ops

#endif  // FEDCROSS_TENSOR_TENSOR_OPS_H_
