#include "fl/scaffold.h"

#include "fl/flat_ops.h"

namespace fedcross::fl {

Scaffold::Scaffold(AlgorithmConfig config, data::FederatedDataset data,
                   models::ModelFactory factory)
    : FlAlgorithm("SCAFFOLD", config, std::move(data), std::move(factory)) {
  global_ = InitialParams();
  server_c_.assign(global_.size(), 0.0f);
  client_c_.Configure(this->config().state_store);
}

void Scaffold::RunRound(int round) {
  std::vector<std::int64_t> selected;
  std::vector<FlatParams> corrections;
  std::vector<ClientTrainSpec> specs;
  std::vector<ClientJob> jobs;
  int count = 0;
  {
    PhaseScope phase(*this, RoundPhase::kDispatch);
    selected = SampleClients();
    count = static_cast<int>(selected.size());
    client_c_.BeginBatch();  // evicts only here: refs stay valid all round

    // Materialise every client's per-step correction c - c_i before the
    // (possibly parallel) training fan-out; the buffers must stay stable for
    // its whole duration.
    corrections.resize(count);
    specs.resize(count);
    jobs.resize(count);
    for (int i = 0; i < count; ++i) {
      FlatParams& c_i = client_c_.Touch(selected[i]);
      if (c_i.empty()) c_i.assign(global_.size(), 0.0f);
      flat_ops::Subtract(server_c_, c_i, corrections[i]);
      specs[i].options = config().train;
      specs[i].scaffold_correction = &corrections[i];
      jobs[i] = {selected[i], &global_, &specs[i]};
    }
  }
  const std::vector<LocalTrainResult>& results =
      TrainClients(round, /*salt=*/0, jobs);

  std::vector<const FlatParams*> local_models;
  std::vector<double> weights;
  FlatParams c_delta_sum(global_.size(), 0.0f);
  // Keyed on result.client_id, not the slot: async arrivals may belong to
  // an earlier round's cohort (sync keeps client_id == selected[i], so this
  // is the historical walk bit-for-bit).
  for (const LocalTrainResult& result : results) {
    if (result.dropped) continue;  // no upload, no variate update
    // Variate traffic: one variate down (c), one up (c_i+). Variates move
    // outside the model codec, so wire == raw for this side channel.
    comm().AddDownload(CommTracker::FloatBytes(model_size()),
                       CommTracker::FloatBytes(model_size()));
    comm().AddUpload(CommTracker::FloatBytes(model_size()),
                     CommTracker::FloatBytes(model_size()));

    // Option II variate update.
    FlatParams& c_i = client_c_.Touch(result.client_id);
    if (c_i.empty()) c_i.assign(global_.size(), 0.0f);
    float inv_step =
        result.num_steps > 0 ? 1.0f / (result.num_steps * result.lr) : 0.0f;
    for (std::size_t j = 0; j < c_i.size(); ++j) {
      float c_new =
          c_i[j] - server_c_[j] + (global_[j] - result.params[j]) * inv_step;
      c_delta_sum[j] += c_new - c_i[j];
      c_i[j] = c_new;
    }

    weights.push_back(result.num_samples * result.weight_scale);
    local_models.push_back(&result.params);
  }

  if (local_models.empty()) return;  // every client dropped
  Aggregate(local_models, weights, global_, global_);
  // c += (|S| / N) * mean_i(c_i+ - c_i), over the clients that uploaded.
  flat_ops::Axpy(server_c_, 1.0f / static_cast<float>(num_clients()),
                 c_delta_sum);
}

void Scaffold::SaveExtraState(StateWriter& writer) {
  writer.WriteFloats(global_);
  writer.WriteFloats(server_c_);
  // Sparse id-keyed table: only clients that were ever selected carry a
  // variate. Spilled entries round-trip through Read.
  std::vector<std::int64_t> ids = client_c_.TouchedIds();
  writer.WriteU64(ids.size());
  for (std::int64_t id : ids) {
    writer.WriteI64(id);
    FC_CHECK(client_c_.Read(id, c_scratch_));
    writer.WriteFloats(c_scratch_);
  }
}

util::Status Scaffold::LoadExtraState(StateReader& reader) {
  const std::size_t size = static_cast<std::size_t>(model_size());
  FC_RETURN_IF_ERROR(reader.ReadFloats(global_));
  FC_RETURN_IF_ERROR(reader.ReadFloats(server_c_));
  if (global_.size() != size || server_c_.size() != size) {
    return util::Status::InvalidArgument(
        "checkpointed SCAFFOLD model or server variate does not match the "
        "model size");
  }
  std::uint64_t count = 0;
  FC_RETURN_IF_ERROR(reader.ReadU64(count));
  client_c_.Clear();
  std::int64_t prev_id = -1;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::int64_t id = 0;
    FC_RETURN_IF_ERROR(reader.ReadI64(id));
    if (id <= prev_id || id >= num_clients()) {
      return util::Status::InvalidArgument(
          "variate table ids must be ascending and in range");
    }
    prev_id = id;
    FC_RETURN_IF_ERROR(reader.ReadFloats(c_scratch_));
    if (c_scratch_.size() != size) {
      return util::Status::InvalidArgument(
          "checkpointed client variate does not match the model size");
    }
    client_c_.Touch(id) = c_scratch_;
  }
  return util::Status::Ok();
}

}  // namespace fedcross::fl
