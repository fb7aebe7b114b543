#include "fl/parallel.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <thread>

#include "util/thread_pool.h"

namespace fedcross::fl {
namespace {

std::mutex g_pool_mutex;
int g_requested_threads = 0;  // <= 0: hardware_concurrency
std::unique_ptr<util::ThreadPool> g_pool;

int ResolveThreads(int requested) {
  int threads = requested;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  return threads < 1 ? 1 : threads;
}

// The shared worker pool with FlThreads() workers, or nullptr when
// FlThreads() == 1 (callers run inline). The pool is built lazily and
// rebuilt when SetFlThreads changes the size.
util::ThreadPool* AcquireFlPool() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  int want = ResolveThreads(g_requested_threads);
  if (want == 1) return nullptr;
  if (g_pool == nullptr || g_pool->num_threads() != want) {
    g_pool = std::make_unique<util::ThreadPool>(want);
  }
  return g_pool.get();
}

}  // namespace

void SetFlThreads(int n) {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  g_requested_threads = n;
  g_pool.reset();  // rebuilt lazily at the new size
}

int FlThreads() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  return ResolveThreads(g_requested_threads);
}

int ParallelWidth() {
  const int workers = FlThreads();
  return workers == 1 ? 1 : workers + 1;
}

void ParallelFor(int count, const std::function<void(int)>& fn) {
  util::ThreadPool* pool = count > 1 ? AcquireFlPool() : nullptr;
  if (pool == nullptr) {
    for (int i = 0; i < count; ++i) fn(i);
    return;
  }
  pool->ParallelFor(count, fn);
}

void ParallelRanges(std::int64_t n, std::int64_t min_per_range,
                    const std::function<void(std::int64_t, std::int64_t)>& fn) {
  if (n <= 0) return;
  if (min_per_range < 1) min_per_range = 1;
  // ranges <= n, so every range is non-empty.
  const std::int64_t ranges = std::clamp<std::int64_t>(
      n / min_per_range, 1, ParallelWidth());
  ParallelFor(static_cast<int>(ranges), [&](int r) {
    fn(n * r / ranges, n * (r + 1) / ranges);
  });
}

}  // namespace fedcross::fl
