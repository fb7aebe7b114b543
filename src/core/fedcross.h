#ifndef FEDCROSS_CORE_FEDCROSS_H_
#define FEDCROSS_CORE_FEDCROSS_H_

#include <string>
#include <vector>

#include "fl/algorithm.h"
#include "util/status.h"

namespace fedcross::core {

// Collaborative-model selection criteria (paper Section III-B1).
enum class SelectionStrategy {
  kInOrder,             // W[(i + (r%(K-1) + 1)) % K]
  kHighestSimilarity,   // argmax cosine similarity (flawed; kept for Table III)
  kLowestSimilarity,    // argmin cosine similarity (recommended)
};

const char* SelectionStrategyName(SelectionStrategy strategy);
util::StatusOr<SelectionStrategy> ParseSelectionStrategy(
    const std::string& name);

// Model-similarity measures for the similarity-based strategies. The paper
// uses cosine similarity and explicitly leaves "other measures (e.g.,
// Euclidean Distance)" as future work — both are implemented here.
enum class SimilarityMeasure {
  kCosine,             // angle between parameter vectors (paper default)
  kNegativeEuclidean,  // -||x - y||; higher = more similar
};

const char* SimilarityMeasureName(SimilarityMeasure measure);
util::StatusOr<SimilarityMeasure> ParseSimilarityMeasure(
    const std::string& name);

// Similarity(x, y) under the chosen measure (higher = more similar).
double ModelSimilarity(const fl::FlatParams& x, const fl::FlatParams& y,
                       SimilarityMeasure measure);

// The row-major K x K similarity matrix of K equally-sized models: cell
// (i, j), i != j, is ModelSimilarity(*models[i], *models[j], measure) bit for
// bit; the diagonal is 0. One fl-pool task per row i covers every j > i, and
// (i, j) and (j, i) hold the one value. Cosine runs as one tiled Gram pass
// (ops::CosineGramRow): each row reads its model and its partners once, and
// each squared norm is computed once, as its row's diagonal.
void SimilarityMatrix(const std::vector<const fl::FlatParams*>& models,
                      SimilarityMeasure measure, std::vector<double>& matrix);

// The K uploads an async round aggregates, as a table of pointers; nothing
// is copied. Buffered arrivals are keyed by lane (result.slot), and a later
// arrival for a lane replaces an earlier one. uploads[lane] points at the
// lane's arrival when it is fresh (weight_scale >= 1), at blended[lane] =
// w * params + (1 - w) * middleware[lane] when it is stale, and at
// middleware[lane] when the lane has no arrival.
void AsyncUploads(const std::vector<fl::LocalTrainResult>& results,
                  const std::vector<fl::FlatParams>& middleware,
                  std::vector<fl::FlatParams>& blended,
                  std::vector<const fl::FlatParams*>& uploads);

// Hyperparameters of FedCross (Algorithm 1 plus the Section III-D
// acceleration methods).
struct FedCrossOptions {
  // Cross-aggregation weight: w_i = alpha*v_i + (1-alpha)*v_co. The paper
  // requires alpha in [0.5, 1.0) and recommends 0.99.
  double alpha = 0.99;
  SelectionStrategy strategy = SelectionStrategy::kLowestSimilarity;
  SimilarityMeasure similarity = SimilarityMeasure::kCosine;

  // Propeller-model acceleration: for the first propeller_rounds rounds,
  // each middleware model aggregates with propeller_count in-order-selected
  // propeller models (sharing the (1-alpha) mass) instead of one
  // collaborative model. 0 disables.
  int propeller_count = 0;
  int propeller_rounds = 0;

  // Dynamic-alpha acceleration: alpha ramps linearly from
  // dynamic_alpha_start to `alpha` across rounds
  // [dynamic_alpha_begin, dynamic_alpha_begin + dynamic_alpha_rounds).
  // 0 rounds disables (alpha is constant).
  int dynamic_alpha_rounds = 0;
  int dynamic_alpha_begin = 0;
  double dynamic_alpha_start = 0.5;
};

// FedCross (the paper's contribution): multi-to-multi FL training via
// multi-model cross-aggregation. The server maintains K homogeneous
// middleware models; each round they are dispatched to K randomly selected
// clients (with a shuffle so models migrate across clients), trained
// locally, and pairwise fused with a collaborative model chosen by the
// selection strategy. A deployable global model is generated on demand by
// averaging the middleware models (GlobalModelGen) — it never participates
// in training.
class FedCross : public fl::FlAlgorithm {
 public:
  FedCross(fl::AlgorithmConfig config, data::FederatedDataset data,
           models::ModelFactory factory, FedCrossOptions options);

  void RunRound(int round) override;

  // GlobalModelGen: the unweighted average of all middleware models.
  fl::FlatParams GlobalParams() override;

  const FedCrossOptions& options() const { return options_; }
  const std::vector<fl::FlatParams>& middleware() const { return middleware_; }

  // Effective cross-aggregation weight in `round` (dynamic-alpha schedule).
  double AlphaAt(int round) const;

  // CoModelSel: index of the collaborative model for uploaded model i in
  // `round` under the configured strategy. The per-model reference; exposed
  // for tests/ablation. When no candidate compares (a non-finite upload
  // makes its whole similarity row NaN), the pick falls back to the
  // in-order collaborator.
  int SelectCollaborator(int model_index, int round,
                         const std::vector<fl::FlatParams>& uploaded) const;

  // CoModelSel for every model at once, as RunRound does it, over a table
  // of K upload pointers (read in place, never copied): one
  // SimilarityMatrix pass, then each row is picked with SelectCollaborator's
  // loop. collaborators[i] equals SelectCollaborator(i, round, uploads)
  // where uploads[j] == *uploaded[j].
  void SelectCollaborators(int round,
                           const std::vector<const fl::FlatParams*>& uploaded,
                           std::vector<int>& collaborators);

  // CrossAggr: alpha*v + (1-alpha)*co.
  static fl::FlatParams CrossAggregate(const fl::FlatParams& model,
                                       const fl::FlatParams& collaborator,
                                       double alpha);

  // Propeller selection: the `count` distinct in-order propeller indices
  // for `model_index` in `round` (never includes model_index itself; capped
  // at k-1). Exposed for the dedup regression test.
  static std::vector<int> SelectPropellerIndices(int model_index, int round,
                                                 int k, int count);

 protected:
  // Checkpoint state: the K middleware models (everything else — selection
  // order, alpha schedule — is a pure function of config and round).
  void SaveExtraState(fl::StateWriter& writer) override;
  util::Status LoadExtraState(fl::StateReader& reader) override;

  // Every round dispatches exactly K jobs, one per middleware model, even
  // when over-provisioning makes SampleClients draw extras; a result's slot
  // is the lane it updates.
  std::int64_t DispatchSlots() const override {
    return config().clients_per_round;
  }

 private:
  FedCrossOptions options_;
  std::vector<fl::FlatParams> middleware_;  // the dispatched model list W
  // The round's K uploads, read in place: each points at a training result,
  // at middleware_ (an async lane with no arrival), or at blended_ (a stale
  // async arrival blended toward its middleware model).
  std::vector<const fl::FlatParams*> uploads_;
  // Round-recycled scratch: the staleness blends and the next middleware
  // generation, swapped in at the end of the round (middleware_ must stay
  // intact while the uploads that point into it are read).
  std::vector<fl::FlatParams> blended_;
  std::vector<fl::FlatParams> next_;
  fl::FlatParams propeller_mean_;
  // CoModelSel scratch: the row-major K x K similarity matrix and the
  // round's collaborator choices.
  std::vector<double> similarity_;
  std::vector<int> collaborators_;
};

}  // namespace fedcross::core

#endif  // FEDCROSS_CORE_FEDCROSS_H_
