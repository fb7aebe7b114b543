#include "fl/plan_runner.h"

#include <memory>
#include <optional>
#include <vector>

#include "data/dataloader.h"
#include "nn/plan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optim/sgd.h"
#include "util/check.h"

namespace fedcross::fl {
namespace {

struct PlanRunnerMetrics {
  obs::Counter& steps =
      obs::MetricsRegistry::Global().GetCounter("fl.plan.steps");
  obs::Counter& fused =
      obs::MetricsRegistry::Global().GetCounter("fl.plan.fused_steps");
};

PlanRunnerMetrics& Metrics() {
  static PlanRunnerMetrics* metrics = new PlanRunnerMetrics();
  return *metrics;
}

// One job's training progress. The state machine mirrors FlClient::Train's
// layer-path control flow exactly — same loader construction order, same
// Reset points, same augmentation retry rule — so the shared data_rng is
// consumed identically. Heap-allocated because DataLoader keeps a reference
// to data_rng: the address must survive vector growth.
struct Slot {
  enum class Phase { kMain, kAugment, kDone };

  const PlanJob* job = nullptr;
  ModelPool::Lease lease;
  util::Rng data_rng{0};
  std::optional<data::DataLoader> loader;
  std::optional<data::DataLoader> augment_loader;
  Phase phase = Phase::kMain;
  int epoch = 0;
  int augment_batch = 0;   // attempts made in the current augment phase
  bool batch_is_augment = false;
  double total_loss = 0.0;
  int steps = 0;
};

// Advances `slot` to its next mini-batch (written into the replica's
// features/labels buffers), or flips it to kDone. Returns true when a batch
// is ready. Follows client.cc's epoch loop step for step: the main loader
// resets after every epoch's sweep, then the augment loader contributes
// augment_batches_per_epoch batches (resetting once when exhausted; an
// empty reload ends the phase early, like the layer path's `break`).
bool NextSlotBatch(Slot& slot, Tensor& features, std::vector<int>& labels) {
  const ClientTrainSpec& spec = *slot.job->spec;
  for (;;) {
    if (slot.epoch >= spec.options.local_epochs) {
      slot.phase = Slot::Phase::kDone;
      return false;
    }
    if (slot.phase == Slot::Phase::kMain) {
      if (slot.loader->NextBatch(features, labels)) {
        slot.batch_is_augment = false;
        return true;
      }
      slot.loader->Reset();
      if (slot.augment_loader.has_value()) {
        slot.phase = Slot::Phase::kAugment;
        slot.augment_batch = 0;
      } else {
        ++slot.epoch;
      }
    } else {  // kAugment
      if (slot.augment_batch >= spec.augment_batches_per_epoch) {
        ++slot.epoch;
        slot.phase = Slot::Phase::kMain;
        continue;
      }
      ++slot.augment_batch;
      if (slot.augment_loader->NextBatch(features, labels)) {
        slot.batch_is_augment = true;
        return true;
      }
      slot.augment_loader->Reset();
      if (slot.augment_loader->NextBatch(features, labels)) {
        slot.batch_is_augment = true;
        return true;
      }
      ++slot.epoch;  // augment set empty even after reload: end the phase
      slot.phase = Slot::Phase::kMain;
    }
  }
}

}  // namespace

void RunPlanJobs(ModelPool& pool, const PlanJob* jobs, int count) {
  FC_CHECK_GT(count, 0);
  FC_TRACE_SPAN_ARG("plan.lockstep", count);

  // ---- Per-job setup, mirroring FlClient::Train ----
  std::vector<std::unique_ptr<Slot>> slots;
  slots.reserve(count);
  for (int i = 0; i < count; ++i) {
    auto slot = std::make_unique<Slot>();
    const PlanJob& job = jobs[i];
    FC_CHECK(job.client != nullptr && job.init_params != nullptr &&
             job.spec != nullptr && job.rng != nullptr &&
             job.result != nullptr);
    slot->job = &job;
    slot->lease = pool.Acquire();
    detail::ArmReplica(*slot->lease, *job.init_params, job.spec->options);
    slot->data_rng =
        job.rng->Fork(static_cast<std::uint64_t>(job.client->id()) + 1);
    slot->loader.emplace(job.client->dataset(), job.spec->options.batch_size,
                         slot->data_rng);
    if (job.spec->augment_data != nullptr && job.spec->augment_data->size() > 0) {
      slot->augment_loader.emplace(*job.spec->augment_data,
                                   job.spec->options.batch_size,
                                   slot->data_rng);
    }
    slots.push_back(std::move(slot));
  }

  // ---- Lockstep training ----
  // Every iteration advances each live slot by one mini-batch, then fuses
  // the steps whose batches share a shape into one ExecuteStep call. Fusion
  // only changes how many replicas one grouped GEMM covers — each replica's
  // arithmetic, RNG draws and reduction orders are those of a solo run.
  std::vector<Slot*> ready;
  std::vector<nn::plan::PlanState*> states;
  std::vector<nn::plan::BatchRef> batches;
  std::vector<float> grad_scales;
  std::vector<float> losses;
  std::vector<int> corrects;
  std::vector<Slot*> group;
  for (;;) {
    ready.clear();
    for (auto& slot : slots) {
      if (slot->phase == Slot::Phase::kDone) continue;
      ModelPool::Replica& replica = *slot->lease;
      if (NextSlotBatch(*slot, replica.features, replica.labels)) {
        ready.push_back(slot.get());
      }
    }
    if (ready.empty()) break;

    std::size_t done = 0;
    std::vector<bool> taken(ready.size(), false);
    while (done < ready.size()) {
      group.clear();
      const Tensor::Shape* key = nullptr;
      for (std::size_t i = 0; i < ready.size(); ++i) {
        if (taken[i]) continue;
        const Tensor::Shape& shape = (*ready[i]->lease).features.shape();
        if (key == nullptr) key = &shape;
        if (shape != *key) continue;
        taken[i] = true;
        ++done;
        group.push_back(ready[i]);
      }

      ModelPool::Replica& lead = *group[0]->lease;
      const nn::plan::Program* program =
          pool.ProgramFor(lead.features.shape(), lead.model);
      FC_CHECK(program != nullptr)
          << "the execution plan cannot compile this model topology; train "
             "it with --exec layers";

      int n = static_cast<int>(group.size());
      states.resize(n);
      batches.resize(n);
      grad_scales.resize(n);
      losses.resize(n);
      corrects.resize(n);
      for (int g = 0; g < n; ++g) {
        Slot& slot = *group[g];
        ModelPool::Replica& replica = *slot.lease;
        replica.model.ZeroGrad();
        nn::plan::PlanState& st = replica.plan_states[lead.features.shape()];
        if (st.program != program || st.model != &replica.model) {
          st.Bind(*program, replica.model);
        }
        states[g] = &st;
        batches[g] = {replica.features.data(), replica.labels.data()};
        grad_scales[g] =
            slot.batch_is_augment ? slot.job->spec->augment_weight : 1.0f;
      }
      nn::plan::ExecuteStep(*program, states.data(), batches.data(), n,
                            losses.data(), corrects.data(),
                            grad_scales.data());
      for (int g = 0; g < n; ++g) {
        Slot& slot = *group[g];
        ModelPool::Replica& replica = *slot.lease;
        detail::AdjustGradients(replica.model, *slot.job->spec);
        replica.sgd->Step();
        if (!slot.batch_is_augment) {
          slot.total_loss += losses[g];
          ++slot.steps;
        }
      }
      Metrics().steps.Add(n);
      if (n > 1) Metrics().fused.Add(n);
    }
  }

  // ---- Results, field for field what the layer path writes ----
  for (auto& slot : slots) {
    LocalTrainResult& result = *slot->job->result;
    ModelPool::Replica& replica = *slot->lease;
    replica.model.ParamsToFlat(result.params);
    result.num_samples = slot->job->client->num_samples();
    result.num_steps = slot->steps;
    result.lr = slot->job->spec->options.lr;
    result.mean_loss =
        slot->steps > 0 ? slot->total_loss / slot->steps : 0.0;
    result.dropped = false;
    result.fault = FaultKind::kNone;
  }
}

}  // namespace fedcross::fl
