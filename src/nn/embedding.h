#ifndef FEDCROSS_NN_EMBEDDING_H_
#define FEDCROSS_NN_EMBEDDING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "util/rng.h"

namespace fedcross::nn {

// Token embedding lookup.
// input:  [batch, time] of integer token ids stored as floats
// output: [batch, time, embed_dim]
//
// Backward accumulates into the embedding rows and returns an empty tensor
// (token ids are discrete, there is no input gradient); Sequential stops
// backpropagation when it sees the empty gradient.
class Embedding : public Layer {
 public:
  Embedding(int vocab_size, int embed_dim, util::Rng& rng);

  const Tensor& Forward(const Tensor& input) override;
  const Tensor& Backward(const Tensor& grad_output) override;
  void CollectParams(std::vector<Param*>& out) override;
  std::string Name() const override { return "Embedding"; }

  int vocab_size() const { return vocab_size_; }
  int embed_dim() const { return embed_dim_; }

  // Plan-executor access to the table parameter.
  Param& table_param() { return table_; }

 private:
  int vocab_size_;
  int embed_dim_;
  Param table_;
  // Batch-major token ids from last Forward (int64 so the plan executor's
  // argmax-slot storage and this cache share the gather/scatter kernels).
  std::vector<std::int64_t> cached_ids_;
  Tensor output_;
  Tensor empty_grad_;  // stays numel()==0: the stop-backprop sentinel
  int cached_batch_ = 0;
  int cached_time_ = 0;
};

}  // namespace fedcross::nn

#endif  // FEDCROSS_NN_EMBEDDING_H_
