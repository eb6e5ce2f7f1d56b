#include "runtime/thread_pool.h"

#include <sched.h>

#include <atomic>
#include <future>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace rcbr::runtime {
namespace {

TEST(HardwareThreads, AtLeastOne) { EXPECT_GE(HardwareThreads(), 1u); }

#ifdef __linux__
TEST(HardwareThreads, CountsTheCallersAffinityMask) {
  // Pinned to one of its allowed CPUs, the calling thread gets 1 worker.
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int cpu = 0;
  while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &saved)) ++cpu;
  ASSERT_LT(cpu, CPU_SETSIZE);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) {
    GTEST_SKIP() << "cannot pin the test thread to CPU " << cpu;
  }
  const std::size_t pinned = HardwareThreads();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned, 1u);
  EXPECT_EQ(HardwareThreads(), static_cast<std::size_t>(CPU_COUNT(&saved)));
}
#endif

TEST(ThreadPool, ClampsToOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(ThreadPool, RunsSubmittedTasks) {
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      futures.push_back(pool.Submit([&counter] { ++counter; }));
    }
    for (auto& f : futures) f.get();
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 500; ++i) {
      pool.Submit([&counter] { ++counter; });
    }
  }  // join must run every queued task first
  EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPool, StressManyTinyTasks) {
  constexpr int kTasks = 10000;
  std::atomic<std::int64_t> sum{0};
  {
    ThreadPool pool(8);
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([&sum, i] { sum += i; });
    }
  }
  EXPECT_EQ(sum.load(), static_cast<std::int64_t>(kTasks) * (kTasks - 1) / 2);
}

TEST(ThreadPool, SubmitPropagatesExceptionsThroughFuture) {
  ThreadPool pool(2);
  std::future<void> ok = pool.Submit([] {});
  std::future<void> bad =
      pool.Submit([] { throw std::runtime_error("task failed"); });
  EXPECT_NO_THROW(ok.get());
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (std::size_t threads : {1u, 2u, 8u}) {
    std::vector<std::atomic<int>> hits(257);
    ParallelFor(hits.size(), threads,
                [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, ZeroAndOneElement) {
  int calls = 0;
  ParallelFor(0, 4, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(1, 4, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, DefaultThreadCountWorks) {
  std::atomic<int> counter{0};
  ParallelFor(64, 0, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 64);
}

TEST(ParallelFor, PropagatesFirstException) {
  for (std::size_t threads : {1u, 4u}) {
    EXPECT_THROW(
        ParallelFor(100, threads,
                    [](std::size_t i) {
                      if (i == 37) throw std::runtime_error("point 37");
                    }),
        std::runtime_error);
  }
}

TEST(ParallelFor, SerialPathStopsAtThrowingIndex) {
  int calls = 0;
  EXPECT_THROW(ParallelFor(1000, 1,
                           [&](std::size_t i) {
                             ++calls;
                             if (i == 10) throw std::runtime_error("early");
                           }),
               std::runtime_error);
  EXPECT_EQ(calls, 11);
}

}  // namespace
}  // namespace rcbr::runtime
