#ifndef FEDCROSS_FL_PLAN_RUNNER_H_
#define FEDCROSS_FL_PLAN_RUNNER_H_

#include <cstdint>

#include "fl/client.h"
#include "fl/model_pool.h"
#include "fl/types.h"
#include "util/rng.h"

namespace fedcross::fl {

// One client's local-training job for the execution-plan runner. All
// pointed-to data must stay valid until RunPlanJobs returns; `rng` is the
// job's own training stream (the same object the layer path would fork),
// consumed identically so both paths draw the same bits.
struct PlanJob {
  const FlClient* client = nullptr;
  const FlatParams* init_params = nullptr;
  const ClientTrainSpec* spec = nullptr;
  util::Rng* rng = nullptr;
  LocalTrainResult* result = nullptr;
};

// Trains `count` jobs in lockstep on the execution-plan runtime: every job
// holds a pooled replica, advances one mini-batch per step, and steps whose
// batches share a shape are fused so each GEMM runs once across all of them
// (ops::GemmGrouped). Each job's parameter trajectory, loss accounting and
// RNG consumption are bit-identical to FlClient::Train's layer path, so how
// jobs are split into calls (cohort boundaries) never changes a job's bits.
// The pooled topology must compile (nn::plan::Program::Compile); one that
// does not stops the process with a message naming --exec layers.
// Thread-compatible: concurrent calls on disjoint job ranges share only the
// (internally locked) pool.
void RunPlanJobs(ModelPool& pool, const PlanJob* jobs, int count);

// Lockstep pays only while a cohort's replicas share one core's cache: it
// interleaves them op by op, so every weight, gradient and momentum buffer
// is re-fetched from L3 or DRAM at each op once they do not fit. A replica
// whose parameter state (values, gradients and momentum: 3 x model_size
// floats) exceeds this many bytes therefore trains solo, one RunPlanJobs
// call per job. 2 MiB is the per-core L2 of the benchmark host. It is fixed
// rather than queried so that the schedule, and what a trace of it shows,
// is the same on every host.
inline constexpr std::int64_t kLockstepStateBytes = std::int64_t{2} << 20;

// True when replicas of a model with `model_size` parameters are small
// enough to train in lockstep cohorts (see kLockstepStateBytes).
constexpr bool TrainsInLockstep(std::int64_t model_size) {
  return 3 * model_size * static_cast<std::int64_t>(sizeof(float)) <=
         kLockstepStateBytes;
}

}  // namespace fedcross::fl

#endif  // FEDCROSS_FL_PLAN_RUNNER_H_
