#ifndef FEDCROSS_FL_EVALUATOR_H_
#define FEDCROSS_FL_EVALUATOR_H_

#include "data/dataset.h"
#include "fl/model_pool.h"
#include "fl/types.h"
#include "models/model_zoo.h"

namespace fedcross::fl {

// Evaluates flat parameters on a dataset using pooled model replicas: test
// batches are cut into min(ParallelWidth(), batches) contiguous shards by
// fl::ParallelRanges (see fl/parallel.h), one replica per shard, and
// per-batch results are reduced in batch order with double accumulation —
// so the result is bit-identical for every thread count, one inline shard
// included. At steady state no replica or batch-buffer allocations occur.
EvalResult EvaluateParams(ModelPool& pool, const FlatParams& params,
                          const data::Dataset& dataset, int batch_size = 100);

// Convenience overload: builds a model from the factory per call and runs
// the serial path. Kept for standalone callers; same math as above.
EvalResult EvaluateParams(const models::ModelFactory& factory,
                          const FlatParams& params,
                          const data::Dataset& dataset, int batch_size = 100);

// Evaluates an already-constructed model (avoids rebuild in tight loops).
EvalResult EvaluateModel(nn::Sequential& model, const data::Dataset& dataset,
                         int batch_size = 100);

}  // namespace fedcross::fl

#endif  // FEDCROSS_FL_EVALUATOR_H_
