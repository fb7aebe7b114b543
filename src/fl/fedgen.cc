#include "fl/fedgen.h"

#include <cmath>
#include <cstring>
#include <numeric>

#include "nn/activations.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "obs/trace.h"
#include "optim/sgd.h"

namespace fedcross::fl {

FedGen::FedGen(AlgorithmConfig config, data::FederatedDataset data,
               models::ModelFactory factory)
    : FedGen(config, std::move(data), std::move(factory), Options()) {}

FedGen::FedGen(AlgorithmConfig config, data::FederatedDataset data,
               models::ModelFactory factory, Options options)
    : FlAlgorithm("FedGen", config, std::move(data), std::move(factory)),
      options_(options) {
  global_ = InitialParams();

  example_shape_ = test_set().example_shape();
  example_numel_ = 1;
  for (int dim : example_shape_) example_numel_ *= dim;
  num_classes_ = test_set().num_classes();
  // Single-axis examples are token sequences: embedding blocks input grads.
  discrete_inputs_ = example_shape_.size() == 1;
  label_weights_.assign(num_classes_, 1.0);

  util::Rng gen_rng(config.seed ^ 0x9e3779b97f4a7c15ULL);
  generator_.Add(std::make_unique<nn::Linear>(
      options_.latent_dim + num_classes_, options_.generator_hidden, gen_rng));
  generator_.Add(std::make_unique<nn::Relu>());
  generator_.Add(std::make_unique<nn::Linear>(
      options_.generator_hidden, static_cast<int>(example_numel_), gen_rng));
  generator_size_ = generator_.NumParams();
}

void FedGen::SampleGeneratorInput(int batch, Tensor& input,
                                  std::vector<int>& labels) {
  input.ResizeTo({batch, options_.latent_dim + num_classes_});
  input.Fill(0.0f);  // reused buffer: clear the one-hot block
  labels.resize(batch);
  float* data = input.data();
  for (int b = 0; b < batch; ++b) {
    int label = rng().Categorical(label_weights_);
    labels[b] = label;
    float* row =
        data + static_cast<std::int64_t>(b) * (options_.latent_dim + num_classes_);
    for (int z = 0; z < options_.latent_dim; ++z) {
      row[z] = static_cast<float>(rng().Normal());
    }
    row[options_.latent_dim + label] = 1.0f;
  }
}

void FedGen::TrainGenerator() {
  if (discrete_inputs_) return;  // no input gradients through embeddings

  // The teacher pass borrows a pooled replica instead of rebuilding the
  // global model every round.
  ModelPool::Lease lease = pool().Acquire();
  nn::Sequential& global_model = lease->model;
  global_model.ParamsFromFlat(global_);

  optim::SgdOptions sgd_options;
  sgd_options.lr = options_.generator_lr;
  sgd_options.momentum = 0.9f;
  sgd_options.grad_clip_norm = 5.0f;
  optim::Sgd sgd(generator_.Params(), sgd_options);

  nn::CrossEntropyLoss criterion;
  nn::LossResult loss;
  std::vector<int> labels;
  // Hoisted copies of the layer-owned outputs: both get reshaped, which
  // must not disturb the layers' cached buffers. Copy-assign inside the
  // loop reuses their capacity after the first step.
  Tensor input;
  Tensor fake;
  Tensor grad_input;
  Tensor::Shape batch_shape;
  batch_shape.push_back(options_.generator_batch);
  batch_shape.insert(batch_shape.end(), example_shape_.begin(),
                     example_shape_.end());
  for (int step = 0; step < options_.generator_steps_per_round; ++step) {
    SampleGeneratorInput(options_.generator_batch, input, labels);
    generator_.ZeroGrad();
    fake = generator_.Forward(input, /*train=*/true);
    fake.Reshape(batch_shape);

    // Teacher pass: the global model should classify fakes as their label.
    global_model.ZeroGrad();
    const Tensor& logits = global_model.Forward(fake, /*train=*/false);
    criterion.Compute(logits, labels, loss);
    grad_input = global_model.Backward(loss.grad_logits);
    grad_input.Reshape(
        {options_.generator_batch, static_cast<int>(example_numel_)});
    generator_.Backward(grad_input);
    sgd.Step();
  }
}

void FedGen::RegenerateSyntheticSet() {
  std::vector<int> labels;
  Tensor input;
  SampleGeneratorInput(options_.synthetic_samples, input, labels);
  const Tensor& fake = generator_.Forward(input, /*train=*/false);

  std::vector<float> features(
      static_cast<std::size_t>(options_.synthetic_samples) * example_numel_);
  const float* data = fake.data();
  if (discrete_inputs_) {
    // Round into valid token ids (label-conditioned random sequences).
    int vocab = num_classes_;
    for (std::size_t i = 0; i < features.size(); ++i) {
      float scaled = (std::tanh(data[i]) * 0.5f + 0.5f) * (vocab - 1);
      features[i] = std::floor(std::max(0.0f, std::min(scaled, vocab - 1.0f)));
    }
  } else {
    for (std::size_t i = 0; i < features.size(); ++i) features[i] = data[i];
  }
  synthetic_ = std::make_shared<data::InMemoryDataset>(
      example_shape_, std::move(features), std::move(labels), num_classes_);
}

void FedGen::RunRound(int round) {
  std::vector<std::int64_t> selected;
  std::vector<double> new_label_weights(num_classes_, 1e-3);

  ClientTrainSpec spec;
  std::vector<ClientJob> jobs;
  {
    PhaseScope phase(*this, RoundPhase::kDispatch);
    selected = SampleClients();
    spec.options = config().train;
    spec.augment_data = synthetic_.get();  // null in round 0
    spec.augment_weight = options_.augment_weight;
    spec.augment_batches_per_epoch = options_.augment_batches_per_epoch;

    jobs.resize(selected.size());
    for (std::size_t i = 0; i < selected.size(); ++i) {
      jobs[i] = {selected[i], &global_, &spec};
    }
  }
  const std::vector<LocalTrainResult>& results =
      TrainClients(round, /*salt=*/0, jobs);

  std::vector<const FlatParams*> local_models;
  std::vector<double> weights;
  // Generator payload rides along with every model dispatch, outside the
  // model codec (wire == raw) — counted per dispatched job, since async
  // arrivals are not positionally aligned with this round's dispatches.
  if (synthetic_ != nullptr) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      comm().AddDownload(CommTracker::FloatBytes(generator_size_),
                         CommTracker::FloatBytes(generator_size_));
    }
  }
  for (const LocalTrainResult& result : results) {
    if (result.dropped) continue;  // device failed before uploading
    weights.push_back(result.num_samples * result.weight_scale);
    local_models.push_back(&result.params);

    std::vector<int> counts =
        client(result.client_id).dataset().LabelCounts();
    for (int k = 0; k < num_classes_; ++k) new_label_weights[k] += counts[k];
  }

  if (local_models.empty()) return;  // every client dropped
  Aggregate(local_models, weights, global_, global_);
  label_weights_ = std::move(new_label_weights);
  {
    FC_TRACE_SPAN("fedgen.train_generator");
    TrainGenerator();
  }
  {
    FC_TRACE_SPAN("fedgen.regenerate_synthetic");
    RegenerateSyntheticSet();
  }
}

void FedGen::SaveExtraState(StateWriter& writer) {
  writer.WriteFloats(global_);
  writer.WriteDoubles(label_weights_);
  writer.WriteFloats(generator_.ParamsToFlat());
  writer.WriteBool(synthetic_ != nullptr);
  if (synthetic_ != nullptr) {
    int n = synthetic_->size();
    std::vector<int> indices(n);
    std::iota(indices.begin(), indices.end(), 0);
    Tensor features;
    std::vector<int> labels;
    synthetic_->GetBatch(indices, features, labels);
    FlatParams flat(static_cast<std::size_t>(features.numel()));
    std::memcpy(flat.data(), features.data(), flat.size() * sizeof(float));
    writer.WriteFloats(flat);
    writer.WriteInts(labels);
  }
}

util::Status FedGen::LoadExtraState(StateReader& reader) {
  FC_RETURN_IF_ERROR(reader.ReadFloats(global_));
  if (global_.size() != static_cast<std::size_t>(model_size())) {
    return util::Status::InvalidArgument(
        "checkpointed global model does not match the model size");
  }
  // The label prior feeds Rng::Categorical, whose draw indexes one-hot
  // columns: one finite, non-negative weight per class, positive in sum.
  FC_RETURN_IF_ERROR(reader.ReadDoubles(label_weights_));
  bool prior_ok =
      label_weights_.size() == static_cast<std::size_t>(num_classes_);
  double total = 0.0;
  for (double w : label_weights_) {
    prior_ok = prior_ok && std::isfinite(w) && w >= 0.0;
    total += w;
  }
  if (!prior_ok || !(total > 0.0)) {
    return util::Status::InvalidArgument(
        "checkpointed label prior is not " + std::to_string(num_classes_) +
        " finite non-negative weights with a positive sum");
  }
  FlatParams generator_params;
  FC_RETURN_IF_ERROR(reader.ReadFloats(generator_params));
  if (static_cast<std::int64_t>(generator_params.size()) != generator_size_) {
    return util::Status::FailedPrecondition(
        "checkpointed generator has " +
        std::to_string(generator_params.size()) + " params, expected " +
        std::to_string(generator_size_));
  }
  generator_.ParamsFromFlat(generator_params);
  bool has_synthetic = false;
  FC_RETURN_IF_ERROR(reader.ReadBool(has_synthetic));
  if (has_synthetic) {
    FlatParams features;
    std::vector<int> labels;
    FC_RETURN_IF_ERROR(reader.ReadFloats(features));
    FC_RETURN_IF_ERROR(reader.ReadInts(labels));
    if (labels.empty() ||
        features.size() !=
            labels.size() * static_cast<std::size_t>(example_numel_)) {
      return util::Status::InvalidArgument(
          "checkpointed synthetic set is inconsistent");
    }
    for (int label : labels) {
      if (label < 0 || label >= num_classes_) {
        return util::Status::InvalidArgument(
            "checkpointed synthetic label out of range");
      }
    }
    synthetic_ = std::make_shared<data::InMemoryDataset>(
        example_shape_, std::move(features), std::move(labels), num_classes_);
  } else {
    synthetic_ = nullptr;
  }
  return util::Status::Ok();
}

}  // namespace fedcross::fl
