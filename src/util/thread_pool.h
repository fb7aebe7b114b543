#ifndef FEDCROSS_UTIL_THREAD_POOL_H_
#define FEDCROSS_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fedcross::util {

// Fixed-size worker pool for running independent client-training jobs in
// parallel. Tasks are void() closures; errors must be reported through the
// closure's captured state. Destruction waits for queued work to drain.
class ThreadPool {
 public:
  // num_threads <= 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task for asynchronous execution.
  void Schedule(std::function<void()> task);

  // Blocks until every scheduled task has finished.
  void Wait();

  // Runs fn(i) for i in [0, count), distributing across the pool, and
  // returns once every index has finished. The calling thread participates
  // in the loop, so the loop runs on up to num_threads()+1 threads, and
  // ParallelFor may be called from inside a pool task (nested parallelism)
  // without deadlocking: the nested call drains its own indices even when
  // every other worker is busy.
  void ParallelFor(int count, const std::function<void(int)>& fn);

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable work_done_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  int in_flight_ = 0;
  bool shutting_down_ = false;
};

}  // namespace fedcross::util

#endif  // FEDCROSS_UTIL_THREAD_POOL_H_
