#ifndef FEDCROSS_FL_FLAT_OPS_H_
#define FEDCROSS_FL_FLAT_OPS_H_

#include <cstddef>
#include <vector>

#include "fl/types.h"

namespace fedcross::fl::flat_ops {

// Fused single-loop kernels over flat parameter vectors — the server-side
// hot path of every aggregation rule (CrossAggr, propeller means, FedAvg
// weighted averages, similarity-based CoModelSel). Each helper makes exactly
// one pass over its operands with branch-free bodies so the compiler
// vectorizes them; at typical model sizes these passes are memory-bound, so
// one fused pass is the optimum.

// dst = a * x + b * y. dst is resized to x's size; x and y must match.
void LinearCombine(float a, const FlatParams& x, float b, const FlatParams& y,
                   FlatParams& dst);

// dst += src.
void AddInto(FlatParams& dst, const FlatParams& src);

// dst += factor * src.
void Axpy(FlatParams& dst, float factor, const FlatParams& src);

// dst[i] += factor * src[i] for i in [0, n). Raw-pointer form so the
// range-sharded aggregators run the exact same inner loop (same codegen,
// same rounding) on each contiguous shard as Axpy runs on a full vector.
void AxpyRange(float* dst, float factor, const float* src, std::size_t n);

// dst *= factor.
void Scale(FlatParams& dst, float factor);

// dst = src - ref (update direction), single pass.
void Subtract(const FlatParams& src, const FlatParams& ref, FlatParams& dst);

// Cosine similarity via one fused dot/norm/norm pass (the paper's
// Similarity(.) measure); 0 if either vector has zero norm.
double CosineSimilarity(const FlatParams& x, const FlatParams& y);

}  // namespace fedcross::fl::flat_ops

#endif  // FEDCROSS_FL_FLAT_OPS_H_
