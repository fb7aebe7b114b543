#ifndef FEDCROSS_TENSOR_GEMM_KERNELS_H_
#define FEDCROSS_TENSOR_GEMM_KERNELS_H_

#include <cstdint>

#include "tensor/tensor_ops.h"

namespace fedcross::ops::detail {

// Below this op-count (m*n*k) the packing overhead of the blocked kernel
// dominates; the drivers use the simple loops. Shared by Gemm and
// GemmGrouped so both pick the same kernel for the same shape — that shared
// choice is what makes the grouped path bit-identical per instance.
constexpr std::int64_t kSmallGemmOps = 16 * 1024;

// Depth of one packed panel of the blocked kernel: it accumulates each
// output element as a sum of kKc-deep partial chains, while the small
// kernel runs one chain over all of k.
constexpr int kKc = 256;

// True when one untransposed-B Gemm over `parts` side-by-side column blocks
// of width n (alpha = 1, beta = 0) writes, per output element, exactly the
// bytes of `parts` separate Gemm calls of width n. Column position never
// changes an element's chain, but the kernel choice can: the small and
// blocked kernels compute the same ascending-k chain only while k fits one
// blocked panel. Both kernels fuse their multiply-adds alike on every tier
// (fused iff the tier has FMA), which is what makes the k <= kKc case
// exact. The plan executor's batch-wide conv GEMMs take this as their rule.
constexpr bool BatchWideGemmExact(std::int64_t m, std::int64_t n,
                                  std::int64_t k, std::int64_t parts) {
  const bool part_small = m * n * k <= kSmallGemmOps;
  const bool whole_small = m * n * parts * k <= kSmallGemmOps;
  return part_small == whole_small || k <= kKc;
}

// True when the blocked rule runs pack-free (gemm_direct) on an
// untransposed-B shape: a thin operand means a packed panel is reused too
// little to repay its copy. With n <= 20 the packed A panel serves at most
// two kNr-wide B strips; with m <= 8 (or m <= 16) each packed B strip serves
// at most two (four) micro-tile rows. The n and k bounds keep the in-place
// B strip, whose rows lie ldb floats apart, cache-resident across those
// rows. Fitted on a table of packed vs pack-free times over 1879 shapes on
// the avx2 and avx512 tiers (EXPERIMENTS.md): every shape it picks runs
// pack-free at least as fast, within timing noise; packing keeps the large
// and the wide shapes, where it wins by up to 1.9x.
constexpr bool GemmDirectPays(std::int64_t m, std::int64_t n, std::int64_t k) {
  if (n <= 20) return true;
  if (m <= 8) return n <= 1024 && k >= 16;
  return m <= 16 && n <= 640 && n * k <= 48 * 1024;
}

// One ISA tier of the GEMM kernels. The function pointers are resolved once
// at startup (see ActiveSimdTier in tensor_ops.h); every tier is compiled
// from the same source include (gemm_tiers.inc) so the tiers differ only in
// the instruction set the compiler may use.
//
// Contract: within one tier, gemm_grouped_small applied to `count`
// instances produces, for every instance, exactly the bytes gemm_small
// produces on that instance alone, and conv_grouped_small produces exactly
// the bytes of per-image gemm_small calls (alpha = 1, beta = 0). Tiers
// achieve this by sharing the multiply-add helper (fused iff the tier has
// FMA) between all kernels. gemm_grouped_small may be null (the portable
// tier without FMA); the driver then loops gemm_small per instance.
// conv_grouped_small is non-null on every tier: the portable tier carries a
// scalar lane-interleaved body that the compiler may vectorise because each
// lane's ascending-p MAddF chain is independent.
//
// gemm_direct is gemm_blocked (untransposed B only) without the operand
// packing: the same kKc panels, zero-seeded micro-kernel chains and
// write-back, with B's rows and A's elements read in place, so it writes
// exactly gemm_blocked's bytes. gemm_accumulate_images writes exactly the
// bytes of the per-image loop of Gemm(false, true, m, n, k, 1, A_b, lda,
// B_b, ldb, 1, C, ldc) for b = 0..images-1, each image following the rule
// (small or blocked) its own m*n*k selects.
struct GemmKernels {
  SimdTier tier;
  void (*gemm_small)(bool trans_a, bool trans_b, int m, int n, int k,
                     float alpha, const float* a, int lda, const float* b,
                     int ldb, float* c, int ldc);
  void (*gemm_blocked)(bool trans_a, bool trans_b, int m, int n, int k,
                       float alpha, const float* a, int lda, const float* b,
                       int ldb, float* c, int ldc);
  void (*gemm_direct)(bool trans_a, int m, int n, int k, float alpha,
                      const float* a, int lda, const float* b, int ldb,
                      float* c, int ldc);
  void (*gemm_accumulate_images)(int images, int m, int n, int k,
                                 const float* a, int lda,
                                 std::int64_t a_image_stride, const float* b,
                                 int ldb, std::int64_t b_image_stride,
                                 float* c, int ldc);
  void (*gemm_grouped_small)(bool trans_a, bool trans_b, int m, int n, int k,
                             float alpha, int lda, int ldb, int ldc,
                             const GemmGroup* groups, int count);
  void (*conv_grouped_small)(int batch, int m, int n, int k,
                             const ConvGroup* groups, int count);
};

// Tier accessors. Each translation unit that fails to get its ISA at
// compile time (non-x86 target, or a compiler without the -march flag)
// returns the generic tier instead, so the accessors are always safe to
// call; runtime CPU support is checked separately by the dispatcher.
const GemmKernels& GenericGemmKernels();
const GemmKernels& Avx2GemmKernels();
const GemmKernels& Avx512GemmKernels();
// The accessor above for `tier`.
const GemmKernels& TierGemmKernels(SimdTier tier);

}  // namespace fedcross::ops::detail

#endif  // FEDCROSS_TENSOR_GEMM_KERNELS_H_
