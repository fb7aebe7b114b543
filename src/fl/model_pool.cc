#include "fl/model_pool.h"

#include <utility>

#include "obs/metrics.h"
#include "util/check.h"

namespace fedcross::fl {
namespace {

struct PoolCheckoutMetrics {
  obs::Counter& hits =
      obs::MetricsRegistry::Global().GetCounter("fl.pool.checkout.hit");
  obs::Counter& misses =
      obs::MetricsRegistry::Global().GetCounter("fl.pool.checkout.miss");
};

PoolCheckoutMetrics& CheckoutMetrics() {
  static PoolCheckoutMetrics* metrics = new PoolCheckoutMetrics();
  return *metrics;
}

}  // namespace

void ModelPool::Lease::Reset() {
  if (replica_ != nullptr && pool_ != nullptr) {
    pool_->Release(std::move(replica_));
  }
  replica_.reset();
  pool_ = nullptr;
}

ModelPool::ModelPool(models::ModelFactory factory)
    : factory_(std::move(factory)) {
  FC_CHECK(factory_ != nullptr);
}

ModelPool::Lease ModelPool::Acquire() {
  std::unique_ptr<Replica> replica;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!free_.empty()) {
      replica = std::move(free_.back());
      free_.pop_back();
    } else {
      ++created_;
    }
  }
  // Checkout accounting (outside the lock): a miss is a full model build, so
  // the hit/miss ratio is the pool's whole value proposition.
  if (replica != nullptr) {
    CheckoutMetrics().hits.Add(1);
  } else {
    CheckoutMetrics().misses.Add(1);
  }
  if (replica == nullptr) {
    // Construct outside the lock: factory() builds a full model.
    replica = std::make_unique<Replica>();
    replica->model = factory_();
  }
  // A recycled replica must be indistinguishable from a fresh factory model
  // once its parameters are overwritten; reset non-parameter state (dropout
  // RNG streams, ...) here so every checkout starts from the same point.
  replica->model.ResetState();
  return Lease(this, std::move(replica));
}

void ModelPool::Release(std::unique_ptr<Replica> replica) {
  std::lock_guard<std::mutex> lock(mutex_);
  free_.push_back(std::move(replica));
}

std::size_t ModelPool::replicas_created() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return created_;
}

std::size_t ModelPool::available() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return free_.size();
}

const nn::plan::Program* ModelPool::ProgramFor(const Tensor::Shape& input_shape,
                                               nn::Sequential& probe) {
  std::lock_guard<std::mutex> lock(plan_mutex_);
  auto it = programs_.find(input_shape);
  if (it == programs_.end()) {
    // Compile under the lock: a topology walk over one replica, cheap
    // relative to any training step and done once per shape.
    std::optional<nn::plan::Program> compiled =
        nn::plan::Program::Compile(probe, input_shape);
    std::unique_ptr<nn::plan::Program> slot;
    if (compiled.has_value()) {
      slot = std::make_unique<nn::plan::Program>(std::move(*compiled));
    }
    it = programs_.emplace(input_shape, std::move(slot)).first;
  }
  return it->second.get();
}

}  // namespace fedcross::fl
