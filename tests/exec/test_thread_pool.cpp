#include "exec/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

namespace spothost::exec {
namespace {

TEST(ThreadPool, RunsSubmittedTasksAndReturnsResults) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPool, ClampsThreadCountToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, ConcurrencyNeverExceedsThreadCount) {
  constexpr std::size_t kThreads = 3;
  ThreadPool pool(kThreads);
  std::atomic<int> current{0};
  std::atomic<int> peak{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 48; ++i) {
    futures.push_back(pool.submit([&] {
      const int now = ++current;
      int prev = peak.load();
      while (now > prev && !peak.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      --current;
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_LE(peak.load(), static_cast<int>(kThreads));
  EXPECT_GE(peak.load(), 1);
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(2);
  auto bad = pool.submit(
      []() -> int { throw std::runtime_error("task failed"); });
  auto good = pool.submit([] { return 1; });
  EXPECT_THROW(bad.get(), std::runtime_error);
  // A throwing task must not take its worker down with it.
  EXPECT_EQ(good.get(), 1);
  EXPECT_EQ(pool.submit([] { return 2; }).get(), 2);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> completed{0};
  {
    // One worker and many slow-ish tasks: most are still queued when the
    // destructor runs, and every one must still execute.
    ThreadPool pool(1);
    for (int i = 0; i < 64; ++i) {
      auto f = pool.submit([&completed] { ++completed; });
      (void)f;  // results intentionally unobserved
    }
  }
  EXPECT_EQ(completed.load(), 64);
}

TEST(ThreadPool, DefaultThreadCountReadsEnvOverride) {
  ASSERT_EQ(setenv("SPOTHOST_THREADS", "3", 1), 0);
  EXPECT_EQ(ThreadPool::default_thread_count(), 3u);
  // Garbage falls back to hardware concurrency (>= 1), never 0.
  ASSERT_EQ(setenv("SPOTHOST_THREADS", "lots", 1), 0);
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
  ASSERT_EQ(unsetenv("SPOTHOST_THREADS"), 0);
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
}

TEST(ThreadPool, SharedPoolIsSingleton) {
  ThreadPool& a = ThreadPool::shared();
  ThreadPool& b = ThreadPool::shared();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.thread_count(), 1u);
  EXPECT_EQ(a.submit([] { return 11; }).get(), 11);
}

}  // namespace
}  // namespace spothost::exec
