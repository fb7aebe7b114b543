#ifndef FEDCROSS_FL_MODEL_POOL_H_
#define FEDCROSS_FL_MODEL_POOL_H_

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "models/model_zoo.h"
#include "nn/loss.h"
#include "nn/plan.h"
#include "nn/sequential.h"
#include "optim/sgd.h"
#include "tensor/tensor.h"

namespace fedcross::fl {

// A pool of model replicas seeded from one ModelFactory. Client training
// jobs and the evaluator check a replica out instead of rebuilding the model
// (and all of its layer buffers) per job; at steady state a round performs
// zero tensor heap allocations.
//
// Checkout contract: Acquire() returns a replica whose observable behaviour
// is identical to a freshly constructed factory() model *after* the caller
// overwrites its parameters (ParamsFromFlat). Layers keep no state besides
// their Params and caches that every Forward overwrites (nn::Layer), so a
// recycled replica and a fresh model produce bit-identical outputs given
// the same parameters and inputs.
//
// Thread safety: Acquire/checkin are mutex-protected; concurrent jobs each
// hold a distinct replica. The pool grows to the high-water mark of
// concurrently outstanding leases and never shrinks.
class ModelPool {
 public:
  // A checked-out replica: the model plus per-job scratch buffers that ride
  // along so their capacity is recycled with the model.
  struct Replica {
    nn::Sequential model;
    std::unique_ptr<optim::Sgd> sgd;  // built lazily over model's params
    nn::LossResult loss;              // criterion output / softmax scratch
    Tensor features;                  // mini-batch features
    std::vector<int> labels;          // mini-batch labels
    std::vector<int> batch_indices;   // evaluator batch index scratch
    // Execution-plan state per input shape (the epoch-tail short batch gets
    // its own entry). Arenas ride along with the replica, so plan-mode
    // rounds reuse them allocation-free once warm.
    std::map<Tensor::Shape, nn::plan::PlanState> plan_states;
  };

  // RAII lease: returns the replica to the pool on destruction.
  class Lease {
   public:
    Lease() = default;
    Lease(ModelPool* pool, std::unique_ptr<Replica> replica)
        : pool_(pool), replica_(std::move(replica)) {}
    Lease(Lease&& other) noexcept = default;
    Lease& operator=(Lease&& other) noexcept {
      Reset();
      pool_ = other.pool_;
      replica_ = std::move(other.replica_);
      other.pool_ = nullptr;
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { Reset(); }

    Replica& operator*() const { return *replica_; }
    Replica* operator->() const { return replica_.get(); }
    explicit operator bool() const { return replica_ != nullptr; }

   private:
    void Reset();

    ModelPool* pool_ = nullptr;
    std::unique_ptr<Replica> replica_;
  };

  explicit ModelPool(models::ModelFactory factory);

  // Checks a replica out, constructing one from the factory only when the
  // free list is empty. The replica's non-parameter state is reset; its
  // parameters are whatever the previous user left (callers overwrite them
  // with ParamsFromFlat before use).
  Lease Acquire();

  // Total replicas ever constructed (== high-water mark of concurrent
  // leases). Exposed for tests and diagnostics.
  std::size_t replicas_created() const;

  // Replicas currently sitting in the free list.
  std::size_t available() const;

  // The compiled execution plan for `input_shape`, or nullptr when the
  // pooled topology is unsupported by the plan runtime. `probe` must be a
  // replica of this pool's architecture; it is only inspected (dynamic
  // casts and shape walks), never mutated. Programs compile once per
  // distinct input shape and are cached for the pool's lifetime; returned
  // pointers stay valid until the pool is destroyed. Thread-safe.
  const nn::plan::Program* ProgramFor(const Tensor::Shape& input_shape,
                                      nn::Sequential& probe);

 private:
  friend class Lease;

  void Release(std::unique_ptr<Replica> replica);

  models::ModelFactory factory_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Replica>> free_;
  std::size_t created_ = 0;
  // Plan cache: present-but-null marks a shape whose compile failed
  // (unsupported topology), so the answer is memoised either way.
  std::mutex plan_mutex_;
  std::map<Tensor::Shape, std::unique_ptr<nn::plan::Program>> programs_;
};

}  // namespace fedcross::fl

#endif  // FEDCROSS_FL_MODEL_POOL_H_
