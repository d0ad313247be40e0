// Fixed-size worker pool for the experiment harness.
//
// Simulation runs are CPU-bound and embarrassingly parallel, but a sweep can
// easily queue hundreds of (arm x seed) cells; spawning one OS thread per
// cell (the old std::async fan-out) oversubscribes the machine and makes
// peak thread count proportional to run count. The pool caps worker threads
// at a fixed size — SPOTHOST_THREADS, defaulting to hardware_concurrency —
// and feeds them from one MPMC task queue, so a 5-arm x 50-seed sweep is
// 250 bounded tasks, not a burst of 50+ threads.
//
// Tasks must not block on other tasks of the same pool (a cell is one
// self-contained simulation run); results and exceptions travel through the
// std::future each submit() returns.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace spothost::exec {

class ThreadPool {
 public:
  /// Spawns exactly `threads` workers (clamped to >= 1) up front; the pool
  /// never grows or shrinks afterwards.
  explicit ThreadPool(std::size_t threads);

  /// Drains the queue — every task already submitted still runs — then
  /// joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size();
  }

  /// Enqueues `f` for execution on some worker. The returned future carries
  /// f's result, or rethrows whatever f threw.
  template <typename F>
  [[nodiscard]] auto submit(F f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(f));
    std::future<R> result = task->get_future();
    enqueue([task] { (*task)(); });
    return result;
  }

  /// Worker count configured by the environment: SPOTHOST_THREADS if set and
  /// valid, else std::thread::hardware_concurrency() (min 1).
  [[nodiscard]] static std::size_t default_thread_count();

  /// The process-wide pool all parallel experiment execution shares. Sized
  /// by default_thread_count() the first time it is touched (SPOTHOST_THREADS
  /// is read once, at that point).
  [[nodiscard]] static ThreadPool& shared();

 private:
  void enqueue(std::function<void()> task);
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace spothost::exec
