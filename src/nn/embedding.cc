#include "nn/embedding.h"

#include <cmath>

#include "nn/kernels.h"

namespace fedcross::nn {

Embedding::Embedding(int vocab_size, int embed_dim, util::Rng& rng)
    : vocab_size_(vocab_size),
      embed_dim_(embed_dim),
      table_(Tensor::RandomNormal({vocab_size, embed_dim}, rng, 0.0f,
                                  1.0f / std::sqrt(static_cast<float>(embed_dim)))) {
  FC_CHECK_GT(vocab_size, 0);
  FC_CHECK_GT(embed_dim, 0);
}

const Tensor& Embedding::Forward(const Tensor& input) {
  FC_CHECK_EQ(input.ndim(), 2);
  cached_batch_ = input.dim(0);
  cached_time_ = input.dim(1);
  std::int64_t tokens = input.numel();
  cached_ids_.resize(tokens);

  output_.ResizeTo({cached_batch_, cached_time_, embed_dim_});
  kernels::EmbeddingGather(input.data(), tokens, vocab_size_,
                           table_.value.data(), embed_dim_,
                           cached_ids_.data(), output_.data());
  return output_;
}

const Tensor& Embedding::Backward(const Tensor& grad_output) {
  FC_CHECK_EQ(grad_output.ndim(), 3);
  FC_CHECK_EQ(grad_output.dim(0), cached_batch_);
  FC_CHECK_EQ(grad_output.dim(1), cached_time_);
  FC_CHECK_EQ(grad_output.dim(2), embed_dim_);

  kernels::EmbeddingScatterAdd(cached_ids_.data(),
                               static_cast<std::int64_t>(cached_ids_.size()),
                               grad_output.data(), embed_dim_,
                               table_.grad.data());
  return empty_grad_;  // no gradient for discrete token ids
}

void Embedding::CollectParams(std::vector<Param*>& out) {
  out.push_back(&table_);
}

}  // namespace fedcross::nn
