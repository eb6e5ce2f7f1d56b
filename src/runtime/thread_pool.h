// Fixed-size thread pool for the experiment runtime.
//
// Deliberately work-stealing-free: every task is claimed from one shared
// FIFO queue, and nothing about a task's result may depend on which worker
// ran it. Determinism therefore lives entirely in the task definition —
// the sweep engine (sweep.h) derives each point's RNG from the point
// *index*, never from the executing thread, so any thread count (including
// 1) produces bit-identical results.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace rcbr::runtime {

/// Default worker count: the CPUs the calling thread may run on (its
/// affinity mask), or hardware concurrency where the mask is unavailable;
/// at least 1.
std::size_t HardwareThreads();

class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to at least 1).
  explicit ThreadPool(std::size_t threads);

  /// Joins the workers. Tasks already submitted still run to completion;
  /// submitting after destruction begins is an error.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task. The returned future rethrows anything the task
  /// throws, so exceptions propagate to whoever waits on it.
  std::future<void> Submit(std::function<void()> task);

 private:
  void Worker();

  std::vector<std::thread> workers_;
  std::deque<std::packaged_task<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable ready_;
  bool stopping_ = false;
};

/// Runs fn(0), ..., fn(n-1) on up to `threads` workers (0 means
/// HardwareThreads()). Indices are claimed dynamically, so per-index work
/// may be arbitrarily unbalanced; callers needing determinism must make
/// fn(i) a pure function of i (plus read-only shared state). If any call
/// throws, remaining unclaimed indices are skipped and the first exception
/// is rethrown after all workers drain.
void ParallelFor(std::size_t n, std::size_t threads,
                 const std::function<void(std::size_t)>& fn);

}  // namespace rcbr::runtime
