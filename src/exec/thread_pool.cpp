#include "exec/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>

#include "exec/env.hpp"

namespace spothost::exec {

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t n = std::max<std::size_t>(1, threads);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      throw std::runtime_error("ThreadPool: submit after shutdown");
    }
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and fully drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // packaged_task captures any exception into its future
  }
}

std::size_t ThreadPool::default_thread_count() {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<std::size_t>(
      env_int("SPOTHOST_THREADS", static_cast<long long>(hw), 1, 4096));
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(default_thread_count());
  return pool;
}

}  // namespace spothost::exec
