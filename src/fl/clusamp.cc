#include "fl/clusamp.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "fl/flat_ops.h"

namespace fedcross::fl {
namespace {

// L2-normalises a vector in place; returns false if it is (near) zero.
bool Normalize(FlatParams& v) {
  double norm = 0.0;
  for (float x : v) norm += static_cast<double>(x) * x;
  norm = std::sqrt(norm);
  if (norm < 1e-12) return false;
  float inv = static_cast<float>(1.0 / norm);
  for (float& x : v) x *= inv;
  return true;
}

}  // namespace

CluSamp::CluSamp(AlgorithmConfig config, data::FederatedDataset data,
                 models::ModelFactory factory, int kmeans_iters)
    : FlAlgorithm("CluSamp", config, std::move(data), std::move(factory)),
      kmeans_iters_(kmeans_iters) {
  global_ = InitialParams();
  client_updates_.Configure(this->config().state_store);
  assignment_.assign(static_cast<std::size_t>(num_clients()), 0);
  // Initial assignment: round-robin (no history yet).
  for (std::int64_t i = 0; i < num_clients(); ++i) {
    assignment_[static_cast<std::size_t>(i)] =
        static_cast<int>(i % config.clients_per_round);
  }
}

void CluSamp::UpdateClusters() {
  int k = config().clients_per_round;
  std::int64_t n = num_clients();
  client_updates_.BeginBatch();  // refs stay valid until the next round

  // Clients with history (ever uploaded a non-zero update) participate in
  // k-means on normalised updates. TouchedIds is ascending, matching the
  // historical dense scan order; Touch pins every entry for this round.
  std::vector<std::int64_t> with_history = client_updates_.TouchedIds();
  std::vector<const FlatParams*> history(with_history.size());
  for (std::size_t h = 0; h < with_history.size(); ++h) {
    history[h] = &client_updates_.Touch(with_history[h]);
  }
  if (static_cast<int>(with_history.size()) >= k) {
    // Seed centroids from k distinct historied clients. The historical
    // full-shuffle draw keeps pre-Floyd goldens bit-compatible.
    FC_CHECK_LE(with_history.size(),
                static_cast<std::size_t>(std::numeric_limits<int>::max()));
    std::vector<FlatParams> centroids;
    std::vector<int> seeds =
        rng().SampleWithoutReplacement(static_cast<int>(with_history.size()), k);
    for (int seed : seeds) centroids.push_back(*history[seed]);

    for (int iter = 0; iter < kmeans_iters_; ++iter) {
      // Assign by max cosine similarity.
      for (std::size_t h = 0; h < with_history.size(); ++h) {
        double best = -2.0;
        int best_cluster = 0;
        for (int c = 0; c < k; ++c) {
          double sim = flat_ops::CosineSimilarity(*history[h], centroids[c]);
          if (sim > best) {
            best = sim;
            best_cluster = c;
          }
        }
        assignment_[static_cast<std::size_t>(with_history[h])] = best_cluster;
      }
      // Recompute centroids as normalised member means.
      std::vector<FlatParams> sums(k, FlatParams(global_.size(), 0.0f));
      std::vector<int> counts(k, 0);
      for (std::size_t h = 0; h < with_history.size(); ++h) {
        int cluster = assignment_[static_cast<std::size_t>(with_history[h])];
        const FlatParams& update = *history[h];
        FlatParams& sum = sums[cluster];
        for (std::size_t j = 0; j < sum.size(); ++j) sum[j] += update[j];
        ++counts[cluster];
      }
      for (int c = 0; c < k; ++c) {
        if (counts[c] == 0) continue;  // keep old centroid
        if (Normalize(sums[c])) centroids[c] = std::move(sums[c]);
      }
    }
  }
  // Clients without history: spread round-robin over clusters.
  std::int64_t next = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    if (!client_updates_.Contains(i)) {
      assignment_[static_cast<std::size_t>(i)] = static_cast<int>(next++ % k);
    }
  }
  // Guarantee no empty cluster: reassign from the largest cluster.
  std::vector<std::vector<std::int64_t>> members(k);
  for (std::int64_t i = 0; i < n; ++i) {
    members[assignment_[static_cast<std::size_t>(i)]].push_back(i);
  }
  for (int c = 0; c < k; ++c) {
    while (members[c].empty()) {
      int largest = 0;
      for (int d = 1; d < k; ++d) {
        if (members[d].size() > members[largest].size()) largest = d;
      }
      FC_CHECK_GT(members[largest].size(), 1u);
      std::int64_t moved = members[largest].back();
      members[largest].pop_back();
      members[c].push_back(moved);
      assignment_[static_cast<std::size_t>(moved)] = c;
    }
  }
}

void CluSamp::RunRound(int round) {
  int k = config().clients_per_round;
  ClientTrainSpec spec;
  spec.options = config().train;
  std::vector<ClientJob> jobs(k);
  {
    PhaseScope phase(*this, RoundPhase::kDispatch);
    UpdateClusters();

    // One uniformly sampled client per cluster (sampled on the run rng, on
    // the calling thread, before the parallel fan-out).
    std::vector<std::vector<std::int64_t>> members(k);
    for (std::int64_t i = 0; i < num_clients(); ++i) {
      members[assignment_[static_cast<std::size_t>(i)]].push_back(i);
    }
    for (int c = 0; c < k; ++c) {
      FC_CHECK(!members[c].empty());
      jobs[c] = {members[c][rng().UniformInt(members[c].size())], &global_,
                 &spec};
    }
  }
  const std::vector<LocalTrainResult>& results =
      TrainClients(round, /*salt=*/0, jobs);

  std::vector<const FlatParams*> local_models;
  std::vector<double> weights;
  FlatParams update;  // reused scratch across clusters
  // Keyed on result.client_id: async arrivals may belong to an earlier
  // cohort (sync keeps client_id == jobs[c].client_id slot-for-slot).
  for (const LocalTrainResult& result : results) {
    if (result.dropped) continue;  // device failed before uploading

    // Store the (normalised) update direction for the next clustering.
    flat_ops::Subtract(result.params, global_, update);
    if (Normalize(update)) client_updates_.Touch(result.client_id) = update;

    weights.push_back(result.num_samples * result.weight_scale);
    local_models.push_back(&result.params);
  }
  if (local_models.empty()) return;  // every client dropped
  Aggregate(local_models, weights, global_, global_);
}

void CluSamp::SaveExtraState(StateWriter& writer) {
  writer.WriteFloats(global_);
  writer.WriteInts(assignment_);
  // Sparse id-keyed history: only clients that ever uploaded an update.
  std::vector<std::int64_t> ids = client_updates_.TouchedIds();
  writer.WriteU64(ids.size());
  for (std::int64_t id : ids) {
    writer.WriteI64(id);
    FC_CHECK(client_updates_.Read(id, update_scratch_));
    writer.WriteFloats(update_scratch_);
  }
}

util::Status CluSamp::LoadExtraState(StateReader& reader) {
  const std::size_t size = static_cast<std::size_t>(model_size());
  FC_RETURN_IF_ERROR(reader.ReadFloats(global_));
  if (global_.size() != size) {
    return util::Status::InvalidArgument(
        "checkpointed global model does not match the model size");
  }
  FC_RETURN_IF_ERROR(reader.ReadInts(assignment_));
  if (assignment_.size() != static_cast<std::size_t>(num_clients())) {
    return util::Status::FailedPrecondition(
        "checkpoint assignment covers " + std::to_string(assignment_.size()) +
        " clients, run has " + std::to_string(num_clients()));
  }
  // Each assignment indexes the K-element cluster table.
  const int k = config().clients_per_round;
  for (int cluster : assignment_) {
    if (cluster < 0 || cluster >= k) {
      return util::Status::InvalidArgument(
          "checkpoint cluster assignment " + std::to_string(cluster) +
          " out of range [0, " + std::to_string(k) + ")");
    }
  }
  std::uint64_t count = 0;
  FC_RETURN_IF_ERROR(reader.ReadU64(count));
  client_updates_.Clear();
  std::int64_t prev_id = -1;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::int64_t id = 0;
    FC_RETURN_IF_ERROR(reader.ReadI64(id));
    if (id <= prev_id || id >= num_clients()) {
      return util::Status::InvalidArgument(
          "update-history ids must be ascending and in range");
    }
    prev_id = id;
    FC_RETURN_IF_ERROR(reader.ReadFloats(update_scratch_));
    if (update_scratch_.size() != size) {
      return util::Status::InvalidArgument(
          "checkpointed update history does not match the model size");
    }
    client_updates_.Touch(id) = update_scratch_;
  }
  return util::Status::Ok();
}

}  // namespace fedcross::fl
