// The replica pool's checkout contract: a recycled replica must be
// indistinguishable from a freshly built factory model (once its parameters
// are loaded). The pool is also the backbone of the zero-churn round loop,
// so steady-state client training must perform zero tensor heap
// allocations.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "fl/client.h"
#include "fl/model_pool.h"
#include "nn/activations.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "test_util.h"

namespace fedcross::fl {
namespace {

models::ModelFactory MlpFactory(int dim, std::uint64_t seed = 7) {
  return [dim, seed]() {
    util::Rng rng(seed);
    nn::Sequential model;
    model.Add(std::make_unique<nn::Linear>(dim, 8, rng));
    model.Add(std::make_unique<nn::Relu>());
    model.Add(std::make_unique<nn::Linear>(8, 2, rng));
    return model;
  };
}

Tensor MakeBatch(int batch, int dim, std::uint64_t seed) {
  Tensor features({batch, dim});
  util::Rng rng(seed);
  for (std::int64_t i = 0; i < features.numel(); ++i) {
    features.data()[i] = static_cast<float>(rng.Normal());
  }
  return features;
}

void ExpectBitIdentical(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.numel(), b.numel());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(a.numel()) * sizeof(float)),
            0);
}

TEST(ModelPoolTest, RecycledReplicaMatchesFreshFactoryModel) {
  const int dim = 6;
  models::ModelFactory factory = MlpFactory(dim);
  ModelPool pool(factory);
  FlatParams init = factory().ParamsToFlat();

  // Dirty a replica: load shifted params and fill its activation caches
  // with several passes.
  Tensor batch = MakeBatch(10, dim, 99);
  {
    ModelPool::Lease lease = pool.Acquire();
    FlatParams shifted = init;
    for (float& w : shifted) w += 0.25f;
    lease->model.ParamsFromFlat(shifted);
    for (int pass = 0; pass < 5; ++pass) {
      lease->model.Forward(batch);
    }
  }
  EXPECT_EQ(pool.replicas_created(), 1u);

  // The recycled replica and a fresh factory model must now be
  // byte-identical: same params after loading and the same output on every
  // pass.
  nn::Sequential fresh = factory();
  fresh.ParamsFromFlat(init);
  ModelPool::Lease lease = pool.Acquire();
  EXPECT_EQ(pool.replicas_created(), 1u);  // recycled, not rebuilt
  lease->model.ParamsFromFlat(init);

  FlatParams recycled_params = lease->model.ParamsToFlat();
  FlatParams fresh_params = fresh.ParamsToFlat();
  ASSERT_EQ(recycled_params.size(), fresh_params.size());
  EXPECT_EQ(std::memcmp(recycled_params.data(), fresh_params.data(),
                        fresh_params.size() * sizeof(float)),
            0);

  for (int pass = 0; pass < 3; ++pass) {
    ExpectBitIdentical(lease->model.Forward(batch), fresh.Forward(batch));
  }
}

TEST(ModelPoolTest, ConcurrentCheckoutHandsOutDistinctReplicas) {
  const int kThreads = 4;
  models::ModelFactory factory = MlpFactory(4);
  ModelPool pool(factory);

  std::vector<ModelPool::Replica*> held(kThreads, nullptr);
  {
    std::vector<ModelPool::Lease> leases(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t]() {
        leases[t] = pool.Acquire();
        held[t] = &*leases[t];
      });
    }
    for (std::thread& thread : threads) thread.join();

    std::set<ModelPool::Replica*> distinct(held.begin(), held.end());
    EXPECT_EQ(distinct.size(), static_cast<std::size_t>(kThreads));
    EXPECT_EQ(pool.replicas_created(), static_cast<std::size_t>(kThreads));
    EXPECT_EQ(pool.available(), 0u);
  }
  // All leases returned: the next burst recycles instead of growing.
  EXPECT_EQ(pool.available(), static_cast<std::size_t>(kThreads));
  ModelPool::Lease again = pool.Acquire();
  EXPECT_EQ(pool.replicas_created(), static_cast<std::size_t>(kThreads));
}

TEST(ModelPoolTest, SteadyStateClientTrainingAllocatesNoTensors) {
  const int dim = 5;
  auto dataset = testing::MakeToyDataset(30, dim, 0.4f, 3);
  FlClient client(0, dataset);
  models::ModelFactory factory = MlpFactory(dim);
  ModelPool pool(factory);
  FlatParams init = factory().ParamsToFlat();

  ClientTrainSpec spec;
  spec.options.local_epochs = 2;
  spec.options.batch_size = 10;
  spec.options.lr = 0.05f;

  // Warm-up rounds grow every buffer (replica, optimiser state, result
  // params, loader scratch) to its steady-state capacity.
  LocalTrainResult result;
  for (int round = 0; round < 2; ++round) {
    util::Rng rng(100 + round);
    client.Train(pool, init, spec, rng, result);
  }

  // Steady state: further rounds must not touch the tensor heap at all.
  Tensor::ResetHeapAllocations();
  for (int round = 2; round < 5; ++round) {
    util::Rng rng(100 + round);
    client.Train(pool, init, spec, rng, result);
  }
  EXPECT_EQ(Tensor::HeapAllocations(), 0u);
  EXPECT_EQ(pool.replicas_created(), 1u);
}

}  // namespace
}  // namespace fedcross::fl
