#ifndef FEDCROSS_FL_PARALLEL_H_
#define FEDCROSS_FL_PARALLEL_H_

#include <cstdint>
#include <functional>

namespace fedcross::fl {

// Number of worker threads in the shared pool that runs the FL simulation's
// parallel sections (client training fan-out, aggregation, test-set
// evaluation). Process-wide. n <= 0 selects one worker per hardware thread
// (std::thread::hardware_concurrency()); 1 builds no pool and runs every
// section inline on the calling thread. With a pool, the calling thread
// joins each ParallelFor as one more thread, so a section runs on up to
// ParallelWidth() == n + 1 threads. Every parallel section is deterministic
// by construction (per-slot seeded Rngs for training, batch-order reduction
// for evaluation), so results are bit-identical for every worker count.
void SetFlThreads(int n);

// The resolved pool worker count SetFlThreads selected (never < 1).
int FlThreads();

// The number of threads a ParallelFor really runs on: FlThreads() pool
// workers plus the calling thread, or 1 when FlThreads() == 1 and there is
// no pool. Every static partition (lockstep cohorts, aggregation ranges,
// evaluation shards) is cut by ParallelRanges into at most this many
// pieces, so no thread the fan-out runs on sits idle.
int ParallelWidth();

// Runs fn(i) for every i in [0, count) on the shared pool and the calling
// thread, or inline in index order when the pool is off or there is only
// one index. fn(i) must touch nothing another index writes; the result is
// then the same at every thread count and schedule.
void ParallelFor(int count, const std::function<void(int)>& fn);

// Splits [0, n) into at most ParallelWidth() contiguous ranges of at least
// min_per_range elements each and runs fn(begin, end) on every range via
// ParallelFor (one range runs inline). The range boundaries depend only on
// n, min_per_range and ParallelWidth(), never on scheduling, so callers whose
// per-element work is order-independent across ranges (e.g. element-wise
// accumulation with a fixed per-element operand order) produce bit-identical
// results at every thread count.
void ParallelRanges(std::int64_t n, std::int64_t min_per_range,
                    const std::function<void(std::int64_t, std::int64_t)>& fn);

}  // namespace fedcross::fl

#endif  // FEDCROSS_FL_PARALLEL_H_
