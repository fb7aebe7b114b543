#include "core/fedcross.h"

#include <algorithm>
#include <cmath>

#include "fl/flat_ops.h"
#include "fl/parallel.h"
#include "tensor/tensor_ops.h"

namespace fedcross::core {

const char* SelectionStrategyName(SelectionStrategy strategy) {
  switch (strategy) {
    case SelectionStrategy::kInOrder:
      return "in-order";
    case SelectionStrategy::kHighestSimilarity:
      return "highest-similarity";
    case SelectionStrategy::kLowestSimilarity:
      return "lowest-similarity";
  }
  return "unknown";
}

util::StatusOr<SelectionStrategy> ParseSelectionStrategy(
    const std::string& name) {
  if (name == "in-order" || name == "inorder") {
    return SelectionStrategy::kInOrder;
  }
  if (name == "highest-similarity" || name == "highest") {
    return SelectionStrategy::kHighestSimilarity;
  }
  if (name == "lowest-similarity" || name == "lowest") {
    return SelectionStrategy::kLowestSimilarity;
  }
  return util::Status::InvalidArgument("unknown selection strategy: " + name);
}

const char* SimilarityMeasureName(SimilarityMeasure measure) {
  switch (measure) {
    case SimilarityMeasure::kCosine:
      return "cosine";
    case SimilarityMeasure::kNegativeEuclidean:
      return "euclidean";
  }
  return "unknown";
}

util::StatusOr<SimilarityMeasure> ParseSimilarityMeasure(
    const std::string& name) {
  if (name == "cosine") return SimilarityMeasure::kCosine;
  if (name == "euclidean" || name == "negative-euclidean") {
    return SimilarityMeasure::kNegativeEuclidean;
  }
  return util::Status::InvalidArgument("unknown similarity measure: " + name);
}

double ModelSimilarity(const fl::FlatParams& x, const fl::FlatParams& y,
                       SimilarityMeasure measure) {
  FC_CHECK_EQ(x.size(), y.size());
  switch (measure) {
    case SimilarityMeasure::kCosine:
      return ops::CosineSimilarity(x, y);
    case SimilarityMeasure::kNegativeEuclidean: {
      double total = 0.0;
      for (std::size_t i = 0; i < x.size(); ++i) {
        double d = static_cast<double>(x[i]) - y[i];
        total += d * d;
      }
      return -std::sqrt(total);
    }
  }
  FC_CHECK(false) << "unreachable";
  return 0.0;
}

void SimilarityMatrix(const std::vector<const fl::FlatParams*>& models,
                      SimilarityMeasure measure, std::vector<double>& matrix) {
  const int k = static_cast<int>(models.size());
  matrix.assign(static_cast<std::size_t>(k) * k, 0.0);
  if (k == 0) return;
  const std::size_t n = models[0]->size();
  for (const fl::FlatParams* model : models) FC_CHECK_EQ(model->size(), n);
  auto cell = [&](int i, int j) -> double& {
    return matrix[static_cast<std::size_t>(i) * k + j];
  };
  if (measure == SimilarityMeasure::kCosine) {
    // Row i of the Gram matrix fills row i from the diagonal (model i's
    // squared norm) rightwards, each dot reduced as ops::CosineSimilarity
    // reduces it; CosineFromGram then finishes every pair as it does.
    std::vector<const float*> data(k);
    for (int i = 0; i < k; ++i) data[i] = models[i]->data();
    fl::ParallelFor(k, [&](int i) {
      ops::CosineGramRow(data.data(), k, i, n, &cell(i, 0));
    });
    std::vector<double> norms(k);
    for (int i = 0; i < k; ++i) {
      norms[i] = cell(i, i);
      cell(i, i) = 0.0;
    }
    for (int i = 0; i < k; ++i) {
      for (int j = i + 1; j < k; ++j) {
        cell(i, j) = cell(j, i) =
            ops::CosineFromGram(cell(i, j), norms[i], norms[j]);
      }
    }
    return;
  }
  // ModelSimilarity is bitwise symmetric: Euclidean squares x - y, and
  // y - x is exactly -(x - y). So row i scans each j > i once and fills both
  // cells with the value the per-model reference computes for either row.
  fl::ParallelFor(k, [&](int i) {
    for (int j = i + 1; j < k; ++j) {
      cell(i, j) = cell(j, i) =
          ModelSimilarity(*models[i], *models[j], measure);
    }
  });
}

void AsyncUploads(const std::vector<fl::LocalTrainResult>& results,
                  const std::vector<fl::FlatParams>& middleware,
                  std::vector<fl::FlatParams>& blended,
                  std::vector<const fl::FlatParams*>& uploads) {
  const int k = static_cast<int>(middleware.size());
  blended.resize(k);
  uploads.resize(k);
  for (int i = 0; i < k; ++i) uploads[i] = &middleware[i];
  for (const fl::LocalTrainResult& result : results) {
    const int lane = result.slot;
    FC_CHECK_GE(lane, 0);
    FC_CHECK_LT(lane, k);
    // weight_scale -> 1 recovers the fresh-upload behaviour exactly.
    const double w = result.weight_scale;
    if (w >= 1.0) {
      uploads[lane] = &result.params;
    } else {
      fl::flat_ops::LinearCombine(static_cast<float>(w), result.params,
                                  static_cast<float>(1.0 - w),
                                  middleware[lane], blended[lane]);
      uploads[lane] = &blended[lane];
    }
  }
}

FedCross::FedCross(fl::AlgorithmConfig config, data::FederatedDataset data,
                   models::ModelFactory factory, FedCrossOptions options)
    : FlAlgorithm("FedCross", config, std::move(data), std::move(factory)),
      options_(options) {
  FC_CHECK_GE(options_.alpha, 0.0);
  FC_CHECK_LT(options_.alpha, 1.0);
  FC_CHECK_GE(options_.propeller_count, 0);
  FC_CHECK_GE(options_.dynamic_alpha_rounds, 0);
  FC_CHECK_GT(config.clients_per_round, 1)
      << "FedCross needs at least two middleware models";
  // Initialise the K middleware models from the common factory seed (the
  // paper dispatches homogeneous models; identical initialisation mirrors
  // FedAvg's single starting point).
  middleware_.assign(config.clients_per_round, InitialParams());
}

double FedCross::AlphaAt(int round) const {
  if (options_.dynamic_alpha_rounds <= 0) return options_.alpha;
  if (round < options_.dynamic_alpha_begin) return options_.alpha;
  int progress = round - options_.dynamic_alpha_begin;
  if (progress >= options_.dynamic_alpha_rounds) return options_.alpha;
  double fraction =
      static_cast<double>(progress + 1) / options_.dynamic_alpha_rounds;
  return options_.dynamic_alpha_start +
         (options_.alpha - options_.dynamic_alpha_start) * fraction;
}

namespace {

int InOrderCollaborator(int model_index, int round, int k) {
  return (model_index + (round % (k - 1) + 1)) % k;
}

// The one CoModelSel pick loop, over row[j] = Similarity(model i, model j):
// j ascending with strict comparisons, so ties keep the lowest index. A row
// in which nothing compares (NaN similarities from a non-finite upload)
// falls back to the in-order collaborator.
int PickCollaborator(SelectionStrategy strategy, int model_index, int round,
                     int k, const double* row) {
  int best = -1;
  if (strategy != SelectionStrategy::kInOrder) {
    const bool highest = strategy == SelectionStrategy::kHighestSimilarity;
    double best_sim = highest ? -1e300 : 1e300;
    for (int j = 0; j < k; ++j) {
      if (j == model_index) continue;
      const double sim = row[j];
      if ((highest && sim > best_sim) || (!highest && sim < best_sim)) {
        best_sim = sim;
        best = j;
      }
    }
  }
  if (best < 0) best = InOrderCollaborator(model_index, round, k);
  FC_CHECK(best >= 0 && best < k && best != model_index)
      << "collaborator " << best << " for model " << model_index << " of "
      << k;
  return best;
}

}  // namespace

int FedCross::SelectCollaborator(
    int model_index, int round,
    const std::vector<fl::FlatParams>& uploaded) const {
  const int k = static_cast<int>(uploaded.size());
  FC_CHECK_GT(k, 1);
  FC_CHECK_GE(model_index, 0);
  FC_CHECK_LT(model_index, k);
  std::vector<double> row(k);
  if (options_.strategy != SelectionStrategy::kInOrder) {
    for (int j = 0; j < k; ++j) {
      if (j == model_index) continue;
      row[j] = ModelSimilarity(uploaded[model_index], uploaded[j],
                               options_.similarity);
    }
  }
  return PickCollaborator(options_.strategy, model_index, round, k,
                          row.data());
}

void FedCross::SelectCollaborators(
    int round, const std::vector<const fl::FlatParams*>& uploaded,
    std::vector<int>& collaborators) {
  const int k = static_cast<int>(uploaded.size());
  FC_CHECK_GT(k, 1);
  collaborators.resize(k);
  if (options_.strategy == SelectionStrategy::kInOrder) {
    similarity_.resize(static_cast<std::size_t>(k) * k);  // never read
  } else {
    SimilarityMatrix(uploaded, options_.similarity, similarity_);
  }
  for (int i = 0; i < k; ++i) {
    collaborators[i] = PickCollaborator(
        options_.strategy, i, round, k,
        similarity_.data() + static_cast<std::size_t>(i) * k);
  }
}

fl::FlatParams FedCross::CrossAggregate(const fl::FlatParams& model,
                                        const fl::FlatParams& collaborator,
                                        double alpha) {
  FC_CHECK_EQ(model.size(), collaborator.size());
  fl::FlatParams fused;
  float a = static_cast<float>(alpha);
  fl::flat_ops::LinearCombine(a, model, 1.0f - a, collaborator, fused);
  return fused;
}

std::vector<int> FedCross::SelectPropellerIndices(int model_index, int round,
                                                  int k, int count) {
  FC_CHECK_GT(k, 1);
  FC_CHECK_GE(model_index, 0);
  FC_CHECK_LT(model_index, k);
  count = std::min(count, k - 1);
  // Walk forward from the in-order collaborator, skipping the model itself;
  // each other index is visited at most once per lap, so the selection is
  // duplicate-free by construction.
  std::vector<int> indices;
  indices.reserve(count);
  int j = InOrderCollaborator(model_index, round, k);
  while (static_cast<int>(indices.size()) < count) {
    if (j != model_index) indices.push_back(j);
    j = (j + 1) % k;
  }
  return indices;
}

void FedCross::RunRound(int round) {
  int k = config().clients_per_round;

  fl::ClientTrainSpec spec;
  spec.options = config().train;
  std::vector<ClientJob> jobs(k);
  {
    PhaseScope phase(*this, RoundPhase::kDispatch);
    // Algorithm 1 lines 4-5: random client selection, then shuffle so each
    // middleware model meets a fresh client (model i trains on L_c[i]).
    std::vector<std::int64_t> selected = SampleClients();
    rng().Shuffle(selected);
    for (int i = 0; i < k; ++i) {
      jobs[i] = {selected[i], &middleware_[i], &spec};
    }
  }

  // Lines 7-10: local training of every middleware model — the K clients
  // are independent, so they fan out across the client-training pool. A
  // dropped client simply never uploads, so the server keeps its dispatched
  // copy of that middleware model (result.params echoes the dispatch).
  const std::vector<fl::LocalTrainResult>& results =
      TrainClients(round, /*salt=*/0, jobs);

  PhaseScope phase(*this, RoundPhase::kAggregate);
  // The uploads are read in place through a table of K pointers; nothing
  // below writes to what they point at, and the new generation goes to
  // next_. Async arrivals may be missing or stale: a lane without one keeps
  // its current middleware model, and a stale one is blended toward it.
  if (config().async.mode == fl::RoundMode::kAsync) {
    AsyncUploads(results, middleware_, blended_, uploads_);
  } else {
    uploads_.resize(k);
    for (int i = 0; i < k; ++i) uploads_[i] = &results[i].params;
  }

  // Lines 11-15: CoModelSel + CrossAggr.
  double alpha = AlphaAt(round);
  float a = static_cast<float>(alpha);
  bool use_propellers = options_.propeller_count > 0 &&
                        round < options_.propeller_rounds;
  next_.resize(k);
  if (use_propellers) {
    for (int i = 0; i < k; ++i) {
      // Propeller acceleration: average propeller_count distinct in-order-
      // selected models to share the (1 - alpha) mass.
      std::vector<int> propellers =
          SelectPropellerIndices(i, round, k, options_.propeller_count);
      propeller_mean_.assign(uploads_[i]->size(), 0.0f);
      for (int j : propellers) {
        fl::flat_ops::AddInto(propeller_mean_, *uploads_[j]);
      }
      fl::flat_ops::Scale(propeller_mean_,
                          1.0f / static_cast<float>(propellers.size()));
      fl::flat_ops::LinearCombine(a, *uploads_[i], 1.0f - a, propeller_mean_,
                                  next_[i]);
    }
  } else {
    // Each fused model reads two uploads and writes only its own buffer.
    SelectCollaborators(round, uploads_, collaborators_);
    fl::ParallelFor(k, [&](int i) {
      fl::flat_ops::LinearCombine(a, *uploads_[i], 1.0f - a,
                                  *uploads_[collaborators_[i]], next_[i]);
    });
  }
  // Swap, don't move-assign: middleware_'s buffers become next round's
  // next_ scratch, so the pair recycles indefinitely.
  middleware_.swap(next_);
}

fl::FlatParams FedCross::GlobalParams() { return Average(middleware_); }

void FedCross::SaveExtraState(fl::StateWriter& writer) {
  writer.WriteU64(middleware_.size());
  for (const fl::FlatParams& model : middleware_) writer.WriteFloats(model);
}

util::Status FedCross::LoadExtraState(fl::StateReader& reader) {
  std::uint64_t count = 0;
  FC_RETURN_IF_ERROR(reader.ReadU64(count));
  if (count != middleware_.size()) {
    return util::Status::FailedPrecondition(
        "checkpoint has " + std::to_string(count) +
        " middleware models, run has " + std::to_string(middleware_.size()));
  }
  for (fl::FlatParams& model : middleware_) {
    FC_RETURN_IF_ERROR(reader.ReadFloats(model));
    if (model.size() != static_cast<std::size_t>(model_size())) {
      return util::Status::FailedPrecondition(
          "checkpointed middleware model has " + std::to_string(model.size()) +
          " params, model expects " + std::to_string(model_size()));
    }
  }
  return util::Status::Ok();
}

}  // namespace fedcross::core
