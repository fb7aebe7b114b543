#include "fl/client.h"

#include <optional>

#include "data/dataloader.h"
#include "nn/loss.h"
#include "obs/trace.h"
#include "optim/sgd.h"

namespace fedcross::fl {
namespace detail {

void AdjustGradients(nn::Sequential& model, const ClientTrainSpec& spec) {
  if (spec.prox_anchor == nullptr && spec.scaffold_correction == nullptr) {
    return;
  }
  std::size_t offset = 0;
  for (nn::Param* param : model.Params()) {
    float* grad = param->grad.data();
    const float* value = param->value.data();
    std::int64_t count = param->value.numel();
    if (spec.prox_anchor != nullptr) {
      const float* anchor = spec.prox_anchor->data() + offset;
      for (std::int64_t j = 0; j < count; ++j) {
        grad[j] += spec.prox_mu * (value[j] - anchor[j]);
      }
    }
    if (spec.scaffold_correction != nullptr) {
      const float* correction = spec.scaffold_correction->data() + offset;
      for (std::int64_t j = 0; j < count; ++j) grad[j] += correction[j];
    }
    offset += count;
  }
}

void ArmReplica(ModelPool::Replica& replica, const FlatParams& init_params,
                const TrainOptions& options) {
  replica.model.ParamsFromFlat(init_params);
  optim::SgdOptions sgd_options;
  sgd_options.lr = options.lr;
  sgd_options.momentum = options.momentum;
  sgd_options.weight_decay = options.weight_decay;
  sgd_options.grad_clip_norm = options.grad_clip_norm;
  if (replica.sgd == nullptr) {
    replica.sgd =
        std::make_unique<optim::Sgd>(replica.model.Params(), sgd_options);
  } else {
    replica.sgd->Configure(sgd_options);
  }
}

}  // namespace detail

FlClient::FlClient(std::int64_t id,
                   std::shared_ptr<const data::Dataset> dataset)
    : id_(id), dataset_(std::move(dataset)) {
  FC_CHECK(dataset_ != nullptr);
  FC_CHECK_GT(dataset_->size(), 0) << "client " << id << " has no data";
}

void FlClient::Train(ModelPool& pool, const FlatParams& init_params,
                     const ClientTrainSpec& spec, util::Rng& rng,
                     LocalTrainResult& result) const {
  FC_TRACE_SPAN_ARG("client.train", id_);
  ModelPool::Lease lease = pool.Acquire();
  ModelPool::Replica& replica = *lease;
  detail::ArmReplica(replica, init_params, spec.options);
  nn::Sequential& model = replica.model;
  optim::Sgd& sgd = *replica.sgd;

  util::Rng data_rng = rng.Fork(static_cast<std::uint64_t>(id_) + 1);
  data::DataLoader loader(*dataset_, spec.options.batch_size, data_rng);
  std::optional<data::DataLoader> augment_loader;
  if (spec.augment_data != nullptr && spec.augment_data->size() > 0) {
    augment_loader.emplace(*spec.augment_data, spec.options.batch_size,
                           data_rng);
  }

  nn::CrossEntropyLoss criterion;
  Tensor& features = replica.features;
  std::vector<int>& labels = replica.labels;
  nn::LossResult& loss = replica.loss;
  double total_loss = 0.0;
  int steps = 0;

  for (int epoch = 0; epoch < spec.options.local_epochs; ++epoch) {
    while (loader.NextBatch(features, labels)) {
      model.ZeroGrad();
      const Tensor& logits = model.Forward(features);
      criterion.Compute(logits, labels, loss);
      model.Backward(loss.grad_logits);
      detail::AdjustGradients(model, spec);
      sgd.Step();
      total_loss += loss.loss;
      ++steps;
    }
    loader.Reset();

    // FedGen-style synthetic augmentation: a few weighted batches of
    // generator data per epoch, reusing the main loop's batch buffers.
    if (augment_loader.has_value()) {
      for (int b = 0; b < spec.augment_batches_per_epoch; ++b) {
        if (!augment_loader->NextBatch(features, labels)) {
          augment_loader->Reset();
          if (!augment_loader->NextBatch(features, labels)) break;
        }
        model.ZeroGrad();
        const Tensor& logits = model.Forward(features);
        criterion.Compute(logits, labels, loss);
        loss.grad_logits.Scale(spec.augment_weight);
        model.Backward(loss.grad_logits);
        detail::AdjustGradients(model, spec);
        sgd.Step();
      }
    }
  }

  model.ParamsToFlat(result.params);
  result.num_samples = dataset_->size();
  result.num_steps = steps;
  result.lr = spec.options.lr;
  result.mean_loss = steps > 0 ? total_loss / steps : 0.0;
  result.dropped = false;
  result.fault = FaultKind::kNone;
}

LocalTrainResult FlClient::Train(const models::ModelFactory& factory,
                                 const FlatParams& init_params,
                                 const ClientTrainSpec& spec,
                                 util::Rng& rng) const {
  ModelPool pool(factory);
  LocalTrainResult result;
  Train(pool, init_params, spec, rng, result);
  return result;
}

}  // namespace fedcross::fl
