#include "metrics/sweep.hpp"

#include <future>
#include <stdexcept>
#include <utility>

#include "exec/thread_pool.hpp"

namespace spothost::metrics {

SweepRunner::SweepRunner(int runs, std::uint64_t base_seed, Execution execution)
    : runs_(runs),
      base_seed_(base_seed),
      execution_(execution),
      cache_(std::make_shared<sched::TraceCache>()) {
  if (runs_ <= 0) throw std::invalid_argument("SweepRunner: runs must be > 0");
}

int SweepRunner::add_arm(std::string label, sched::Scenario scenario,
                         sched::SchedulerConfig config) {
  arms_.push_back(
      SweepArm{std::move(label), std::move(scenario), std::move(config)});
  return static_cast<int>(arms_.size()) - 1;
}

std::vector<AggregatedMetrics> SweepRunner::run_all() const {
  const std::size_t n_arms = arms_.size();
  const std::size_t n_runs = static_cast<std::size_t>(runs_);
  std::vector<std::vector<RunMetrics>> results(n_arms);
  for (auto& arm_results : results) arm_results.resize(n_runs);

  auto cell = [this](const SweepArm& arm, int run_index) {
    sched::Scenario s = arm.scenario;
    s.seed = seed_for(run_index);
    return run_hosting_scenario(s, arm.config, cache_->get(s));
  };

  if (execution_ == Execution::kParallel) {
    // One task per cell on the shared fixed-size pool: worker threads stay
    // busy across arm boundaries, and peak thread count stays at the pool
    // size regardless of arms * runs. Cells land in preassigned (arm, seed)
    // slots, so aggregation order — and thus every printed digit — matches
    // serial execution.
    auto& pool = exec::ThreadPool::shared();
    std::vector<std::future<RunMetrics>> futures;
    futures.reserve(n_arms * n_runs);
    for (std::size_t a = 0; a < n_arms; ++a) {
      for (int i = 0; i < runs_; ++i) {
        futures.push_back(
            pool.submit([&cell, this, a, i] { return cell(arms_[a], i); }));
      }
    }
    // Every task references `cell` and this runner, so none may still be
    // queued or running when this frame unwinds: wait for all of them
    // before get() rethrows the first failure in cell order.
    for (const auto& future : futures) future.wait();
    std::size_t f = 0;
    for (std::size_t a = 0; a < n_arms; ++a) {
      for (std::size_t i = 0; i < n_runs; ++i) {
        results[a][i] = futures[f++].get();
      }
    }
  } else {
    for (std::size_t a = 0; a < n_arms; ++a) {
      for (int i = 0; i < runs_; ++i) {
        results[a][static_cast<std::size_t>(i)] = cell(arms_[a], i);
      }
    }
  }

  std::vector<AggregatedMetrics> aggregates;
  aggregates.reserve(n_arms);
  for (auto& arm_results : results) {
    aggregates.push_back(aggregate_runs(std::move(arm_results)));
  }
  return aggregates;
}

std::shared_ptr<const sched::MarketTraceSet> SweepRunner::traces_for(
    const sched::Scenario& scenario, int run_index) const {
  sched::Scenario s = scenario;
  s.seed = seed_for(run_index);
  return cache_->get(s);
}

}  // namespace spothost::metrics
