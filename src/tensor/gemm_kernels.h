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
// blocked panel. Both kernels contract their multiply-adds alike on every
// tier (fused iff the tier has FMA), which is what makes the k <= kKc case
// exact. The plan executor's batch-wide conv GEMMs take this as their rule.
constexpr bool BatchWideGemmExact(std::int64_t m, std::int64_t n,
                                  std::int64_t k, std::int64_t parts) {
  const bool part_small = m * n * k <= kSmallGemmOps;
  const bool whole_small = m * n * parts * k <= kSmallGemmOps;
  return part_small == whole_small || k <= kKc;
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
struct GemmKernels {
  SimdTier tier;
  void (*gemm_small)(bool trans_a, bool trans_b, int m, int n, int k,
                     float alpha, const float* a, int lda, const float* b,
                     int ldb, float* c, int ldc);
  void (*gemm_blocked)(bool trans_a, bool trans_b, int m, int n, int k,
                       float alpha, const float* a, int lda, const float* b,
                       int ldb, float* c, int ldc);
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

}  // namespace fedcross::ops::detail

#endif  // FEDCROSS_TENSOR_GEMM_KERNELS_H_
