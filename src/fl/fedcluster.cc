#include "fl/fedcluster.h"

#include <numeric>

namespace fedcross::fl {

FedCluster::FedCluster(AlgorithmConfig config, data::FederatedDataset data,
                       models::ModelFactory factory, int num_clusters)
    : FlAlgorithm("FedCluster", config, std::move(data), std::move(factory)),
      num_clusters_(num_clusters) {
  FC_CHECK_GT(num_clusters, 0);
  FC_CHECK_LE(num_clusters, config.clients_per_round)
      << "need at least one sampled client per cluster";
  global_ = InitialParams();

  // Random, size-balanced clusters, fixed for the whole run (the original
  // method clusters once; re-clustering variants exist but are not needed
  // for the baseline).
  std::vector<std::int64_t> order(static_cast<std::size_t>(num_clients()));
  std::iota(order.begin(), order.end(), std::int64_t{0});
  rng().Shuffle(order);
  clusters_.assign(num_clusters_, {});
  for (std::size_t i = 0; i < order.size(); ++i) {
    clusters_[i % num_clusters_].push_back(order[i]);
  }
}

void FedCluster::RunRound(int round) {
  int per_cluster =
      (config().clients_per_round + num_clusters_ - 1) / num_clusters_;
  ClientTrainSpec spec;
  spec.options = config().train;

  // Cycle through clusters, rotating the starting cluster each round so no
  // cluster permanently gets the "last word" within the cycle. Each step's
  // clients train in parallel; the steps themselves stay sequential because
  // every step aggregates into the model the next one dispatches.
  for (int step = 0; step < num_clusters_; ++step) {
    const std::vector<std::int64_t>& cluster =
        clusters_[(round + step) % num_clusters_];
    int take = std::min<int>(per_cluster, static_cast<int>(cluster.size()));
    if (take == 0) continue;

    std::vector<int> picks;
    std::vector<ClientJob> jobs;
    {
      PhaseScope phase(*this, RoundPhase::kDispatch);
      picks = rng().SampleWithoutReplacement(static_cast<int>(cluster.size()),
                                             take);
      jobs.resize(picks.size());
      for (std::size_t i = 0; i < picks.size(); ++i) {
        jobs[i] = {cluster[picks[i]], &global_, &spec};
      }
    }
    const std::vector<LocalTrainResult>& results =
        TrainClients(round, /*salt=*/step, jobs);

    std::vector<const FlatParams*> local_models;
    std::vector<double> weights;
    for (const LocalTrainResult& result : results) {
      if (result.dropped) continue;
      weights.push_back(result.num_samples * result.weight_scale);
      local_models.push_back(&result.params);
    }
    if (local_models.empty()) continue;  // whole cluster step dropped
    Aggregate(local_models, weights, global_, global_);
  }
}

void FedCluster::SaveExtraState(StateWriter& writer) {
  writer.WriteFloats(global_);
  writer.WriteU64(clusters_.size());
  for (const std::vector<std::int64_t>& cluster : clusters_) {
    writer.WriteInts64(cluster);
  }
}

util::Status FedCluster::LoadExtraState(StateReader& reader) {
  FC_RETURN_IF_ERROR(reader.ReadFloats(global_));
  if (global_.size() != static_cast<std::size_t>(model_size())) {
    return util::Status::InvalidArgument(
        "checkpointed global model does not match the model size");
  }
  std::uint64_t count = 0;
  FC_RETURN_IF_ERROR(reader.ReadU64(count));
  if (count != clusters_.size()) {
    return util::Status::FailedPrecondition(
        "checkpoint has " + std::to_string(count) + " clusters, run has " +
        std::to_string(clusters_.size()));
  }
  // Members key per-client state and train in parallel within a step, so
  // each must be a real client, listed once.
  std::vector<bool> seen(static_cast<std::size_t>(num_clients()), false);
  for (std::vector<std::int64_t>& cluster : clusters_) {
    FC_RETURN_IF_ERROR(reader.ReadInts64(cluster));
    for (std::int64_t id : cluster) {
      if (id < 0 || id >= num_clients()) {
        return util::Status::InvalidArgument(
            "checkpoint cluster member " + std::to_string(id) +
            " out of range");
      }
      if (seen[static_cast<std::size_t>(id)]) {
        return util::Status::InvalidArgument(
            "checkpoint cluster member " + std::to_string(id) +
            " listed twice");
      }
      seen[static_cast<std::size_t>(id)] = true;
    }
  }
  return util::Status::Ok();
}

}  // namespace fedcross::fl
