// FaultInjector: turns a FaultPlan into seeded, trace-visible injection
// decisions.
//
// The injector is owned by the World and attached to the engine
// (sim::Engine::set_fault_injector) the same way the Tracer is, so every
// component holding a sim::Clock& — the provider, the scheduler — reads it
// from one place without new constructor plumbing. Each injection
// point calls should_inject(kind, ...) at the moment the fault could occur
// (an "opportunity"); the injector counts the opportunity, consults the
// plan, and on a hit emits a kFaultInjected trace event through the
// simulation's tracer so injections are ordinary, inspectable run events.
// The caller names the market through a callable the injector invokes only
// for that event, so an untraced opportunity builds no string.
//
// Determinism contract:
//  * each kind draws from its own named stream ("faults/<kind>"), so arming
//    one kind never perturbs another kind's decisions;
//  * a kind with rate 0 makes NO draws (scheduled hits are index lookups),
//    so an empty plan leaves every other component's RNG sequence — and the
//    golden JSONL trace — byte-identical to a run without the injector.
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "faults/fault_plan.hpp"
#include "simcore/rng.hpp"
#include "simcore/clock.hpp"

namespace spothost::faults {

class FaultInjector {
 public:
  /// Validates and captures the plan; derives one RNG stream per kind with
  /// a nonzero rate from `rng` (stream names "faults/<kind>"). Streams are
  /// keyed by name, so skipping an unarmed kind moves no other draw.
  FaultInjector(sim::Clock& clock, const sim::RngFactory& rng,
                FaultPlan plan);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Counts one opportunity for `kind` and decides whether it faults. An
  /// armed rate draws at every opportunity, traced or not. `market_name()`
  /// and `instance` only annotate the kFaultInjected trace event, so
  /// `market_name` is called only on a hit with an enabled tracer.
  bool should_inject(FaultKind kind) {
    return should_inject(kind, [] { return std::string(); }, 0);
  }
  template <std::invocable MarketName>
  bool should_inject(FaultKind kind, MarketName&& market_name,
                     std::uint64_t instance) {
    const std::uint64_t n = decide(kind);
    if (n == 0) return false;
    if (tracing()) emit(kind, n, market_name(), instance);
    return true;
  }

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  // --- counters (per kind and total) ------------------------------------
  [[nodiscard]] std::uint64_t opportunities(FaultKind kind) const noexcept {
    return opportunities_[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] std::uint64_t injected(FaultKind kind) const noexcept {
    return injected_[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] std::uint64_t injected_total() const noexcept;

 private:
  /// Counts the opportunity and draws: its 1-based index on a hit, else 0.
  std::uint64_t decide(FaultKind kind);
  [[nodiscard]] bool tracing() const noexcept;
  void emit(FaultKind kind, std::uint64_t opportunity, std::string market,
            std::uint64_t instance);

  sim::Clock& clock_;
  FaultPlan plan_;
  /// Per kind, in enum order; null unless the kind's rate is nonzero.
  std::array<std::unique_ptr<sim::RngStream>, kFaultKindCount> streams_;
  /// 1-based opportunity indices scheduled to fail, per kind, sorted.
  std::array<std::vector<std::uint64_t>, kFaultKindCount> scheduled_;
  std::array<std::uint64_t, kFaultKindCount> opportunities_{};
  std::array<std::uint64_t, kFaultKindCount> injected_{};
};

}  // namespace spothost::faults
