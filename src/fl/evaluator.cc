#include "fl/evaluator.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "fl/parallel.h"
#include "nn/loss.h"

namespace fedcross::fl {
namespace {

// Runs batches [batch_begin, batch_end) of the dataset through one replica
// and records each batch's (summed loss, correct count) at its batch index.
// Per-batch results are pure functions of (params, batch contents), so any
// partition of the batch range across replicas yields the same per-batch
// values; the caller's in-order reduction then makes the total independent
// of the thread count.
void EvalBatchRange(ModelPool::Replica& replica, const data::Dataset& dataset,
                    int batch_size, int batch_begin, int batch_end,
                    std::vector<double>& batch_loss,
                    std::vector<int>& batch_correct) {
  nn::CrossEntropyLoss criterion;
  int total = dataset.size();
  std::vector<int>& indices = replica.batch_indices;
  for (int batch = batch_begin; batch < batch_end; ++batch) {
    int start = batch * batch_size;
    int end = std::min(start + batch_size, total);
    indices.resize(end - start);
    std::iota(indices.begin(), indices.end(), start);
    dataset.GetBatch(indices, replica.features, replica.labels);
    const Tensor& logits = replica.model.Forward(replica.features,
                                                 /*train=*/false);
    criterion.Compute(logits, replica.labels, replica.loss,
                      /*compute_grad=*/false);
    batch_loss[batch] = static_cast<double>(replica.loss.loss) * (end - start);
    batch_correct[batch] = replica.loss.correct;
  }
}

}  // namespace

EvalResult EvaluateModel(nn::Sequential& model, const data::Dataset& dataset,
                         int batch_size) {
  FC_CHECK_GT(batch_size, 0);
  nn::CrossEntropyLoss criterion;
  nn::LossResult loss;
  Tensor features;
  std::vector<int> labels;
  double total_loss = 0.0;
  int total_correct = 0;
  int total = dataset.size();

  std::vector<int> indices;
  for (int start = 0; start < total; start += batch_size) {
    int end = std::min(start + batch_size, total);
    indices.resize(end - start);
    std::iota(indices.begin(), indices.end(), start);
    dataset.GetBatch(indices, features, labels);
    const Tensor& logits = model.Forward(features, /*train=*/false);
    criterion.Compute(logits, labels, loss, /*compute_grad=*/false);
    total_loss += static_cast<double>(loss.loss) * (end - start);
    total_correct += loss.correct;
  }

  EvalResult result;
  result.loss = total > 0 ? static_cast<float>(total_loss / total) : 0.0f;
  result.accuracy =
      total > 0 ? static_cast<float>(total_correct) / total : 0.0f;
  return result;
}

EvalResult EvaluateParams(ModelPool& pool, const FlatParams& params,
                          const data::Dataset& dataset, int batch_size) {
  FC_CHECK_GT(batch_size, 0);
  int total = dataset.size();
  if (total == 0) return EvalResult{};
  int num_batches = (total + batch_size - 1) / batch_size;

  // Per-batch partials, indexed by batch number regardless of which shard
  // produced them.
  std::vector<double> batch_loss(num_batches, 0.0);
  std::vector<int> batch_correct(num_batches, 0);

  // Contiguous batch shards, at most one per thread the fan-out runs on;
  // each shard checks out its own replica. A single shard runs inline.
  ParallelRanges(num_batches, /*min_per_range=*/1,
                 [&](std::int64_t begin, std::int64_t end) {
                   ModelPool::Lease lease = pool.Acquire();
                   lease->model.ParamsFromFlat(params);
                   EvalBatchRange(*lease, dataset, batch_size,
                                  static_cast<int>(begin),
                                  static_cast<int>(end), batch_loss,
                                  batch_correct);
                 });

  // Reduce in batch order with double accumulation: the summation order is
  // fixed by construction, never by thread scheduling.
  double total_loss = 0.0;
  int total_correct = 0;
  for (int batch = 0; batch < num_batches; ++batch) {
    total_loss += batch_loss[batch];
    total_correct += batch_correct[batch];
  }

  EvalResult result;
  result.loss = static_cast<float>(total_loss / total);
  result.accuracy = static_cast<float>(total_correct) / total;
  return result;
}

EvalResult EvaluateParams(const models::ModelFactory& factory,
                          const FlatParams& params,
                          const data::Dataset& dataset, int batch_size) {
  nn::Sequential model = factory();
  model.ParamsFromFlat(params);
  return EvaluateModel(model, dataset, batch_size);
}

}  // namespace fedcross::fl
