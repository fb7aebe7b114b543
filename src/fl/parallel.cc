#include "fl/parallel.h"

#include <memory>
#include <mutex>
#include <thread>

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

util::ThreadPool* AcquireFlPool() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  int want = ResolveThreads(g_requested_threads);
  if (want == 1) return nullptr;
  if (g_pool == nullptr || g_pool->num_threads() != want) {
    g_pool = std::make_unique<util::ThreadPool>(want);
  }
  return g_pool.get();
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
  util::ThreadPool* pool = AcquireFlPool();
  std::int64_t ranges = pool == nullptr ? 1 : n / min_per_range;
  if (ranges > FlThreads()) ranges = FlThreads();
  if (ranges <= 1) {
    fn(0, n);
    return;
  }
  pool->ParallelFor(static_cast<int>(ranges), [&](int r) {
    std::int64_t begin = n * r / ranges;
    std::int64_t end = n * (r + 1) / ranges;
    if (begin < end) fn(begin, end);
  });
}

}  // namespace fedcross::fl
