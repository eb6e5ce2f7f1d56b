#include "runtime/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

namespace rcbr::runtime {

std::size_t HardwareThreads() {
#ifdef __linux__
  // A caller pinned to fewer CPUs than the host has gains nothing from
  // more workers than it may run at once.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    const int count = CPU_COUNT(&allowed);
    if (count > 0) return static_cast<std::size_t>(count);
  }
#endif
  return std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t n = std::max<std::size_t>(threads, 1);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { Worker(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(packaged));
  }
  ready_.notify_one();
  return future;
}

void ThreadPool::Worker() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // exceptions land in the task's future
  }
}

void ParallelFor(std::size_t n, std::size_t threads,
                 const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t workers =
      std::min(threads == 0 ? HardwareThreads() : threads, n);
  if (workers == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::vector<std::future<void>> drivers;
  drivers.reserve(workers);
  {
    ThreadPool pool(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      drivers.push_back(pool.Submit([&] {
        while (!failed.load(std::memory_order_relaxed)) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= n) return;
          try {
            fn(i);
          } catch (...) {
            failed.store(true, std::memory_order_relaxed);
            throw;
          }
        }
      }));
    }
  }  // pool joins here; every driver future is ready below

  std::exception_ptr first;
  for (std::future<void>& driver : drivers) {
    try {
      driver.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

}  // namespace rcbr::runtime
