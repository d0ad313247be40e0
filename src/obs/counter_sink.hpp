// Aggregating counter sink: counts events per (kind, code) pair. Attached
// to a run's tracer, it reconstructs sched::SchedulerStats exactly
// (sched::scheduler_stats_from reads it with the same mapping as a
// scheduler's own sched::SchedulerCounts), so the end-of-run aggregates
// and the trace stream can never disagree.
#pragma once

#include <array>
#include <cstdint>

#include "obs/sink.hpp"

namespace spothost::obs {

class CounterSink final : public TraceSink {
 public:
  void on_event(const TraceEvent& event) override {
    const auto k = static_cast<std::size_t>(event.kind);
    if (k >= kEventKindCount) return;
    ++totals_[k];
    if (event.code < kMaxCodes) ++by_code_[k][event.code];
  }

  /// Events of `kind`, any code.
  [[nodiscard]] std::uint64_t count(EventKind kind) const noexcept {
    const auto k = static_cast<std::size_t>(kind);
    return k < kEventKindCount ? totals_[k] : 0;
  }

  /// Events of `kind` with exactly `code`.
  [[nodiscard]] std::uint64_t count(EventKind kind, std::uint8_t c) const noexcept {
    const auto k = static_cast<std::size_t>(kind);
    return (k < kEventKindCount && c < kMaxCodes) ? by_code_[k][c] : 0;
  }

  /// All events seen, any kind.
  [[nodiscard]] std::uint64_t total() const noexcept {
    std::uint64_t sum = 0;
    for (const auto v : totals_) sum += v;
    return sum;
  }

  void clear() {
    totals_ = {};
    by_code_ = {};
  }

 private:
  std::array<std::uint64_t, kEventKindCount> totals_{};
  std::array<std::array<std::uint64_t, kMaxCodes>, kEventKindCount> by_code_{};
};

}  // namespace spothost::obs
