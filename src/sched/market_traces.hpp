// Memoized market-trace generation.
//
// The immutable inputs of a hosting run split cleanly: a market's price
// trace depends only on (seed, horizon, trace_dir, region, size), while
// everything else (scheduler config, fault plan, mechanism constants) merely
// consumes it. No market depends on which other markets its scenario holds:
// each draws from its own named RNG stream. Without a memo, a sweep that
// re-runs the same markets under many config arms and scenario shapes would
// regenerate identical traces once per arm, and the paper sweep's fig09
// region pairs would rebuild the markets fig06-08 already built.
//
// MarketTraceSet captures one scenario's markets; TraceCache memoizes each
// market once per seed and shares it (shared_ptr<const>) across every set
// that contains it, every arm and every pool thread.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <ranges>
#include <string>
#include <unordered_map>
#include <vector>

#include "sched/config.hpp"

namespace spothost::sched {

/// The generated (or CSV-loaded) price trace and on-demand price of every
/// market a scenario instantiates, in the provider's deterministic
/// registration order (scenario region order x scenario size order).
///
/// Immutable after generate(), and PriceTrace's const queries are pure
/// reads (per-reader state lives in caller-owned trace::PriceCursors), so a
/// shared set may be queried in place from any number of threads — no
/// defensive copying required. tests/sched/test_trace_race.cpp hammers one
/// set from every pool thread under ThreadSanitizer to keep this true.
class MarketTraceSet {
 public:
  struct Entry {
    cloud::MarketId id;
    trace::PriceTrace prices;
    double on_demand = 0.0;
  };

  /// Generates all traces for `scenario` using exactly the named RNG streams
  /// ("shared-spikes/<region>", "market/<region>/<size>") a World derives,
  /// so a World built on this set is byte-identical to one that generates
  /// inline.
  [[nodiscard]] static std::shared_ptr<const MarketTraceSet> generate(
      const Scenario& scenario);

  /// Identity of the trace-relevant scenario fields (seed, horizon, regions,
  /// sizes, trace_dir). Scenarios with equal keys produce identical sets;
  /// fault plans and grace periods deliberately do not participate.
  [[nodiscard]] static std::string cache_key(const Scenario& scenario);

  /// Every market's entry in registration order, as a random-access range
  /// of `const Entry&` (size(), [i], front(), back()). Entries may be
  /// shared with other sets from the same TraceCache.
  [[nodiscard]] auto markets() const {
    return entries_ | std::views::transform(
                          [](const EntryPtr& e) -> const Entry& { return *e; });
  }

  /// Price trace of one market; throws std::out_of_range if the scenario
  /// did not instantiate it.
  [[nodiscard]] const trace::PriceTrace& prices(const cloud::MarketId& id) const;

  /// Traces of every market in `region`, in size order — the fig08/fig09
  /// correlation inputs.
  [[nodiscard]] std::vector<trace::PriceTrace> region_traces(
      const std::string& region) const;

  [[nodiscard]] const std::string& key() const noexcept { return key_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] sim::SimTime horizon() const noexcept { return horizon_; }

 private:
  friend class TraceCache;
  using EntryPtr = std::shared_ptr<const Entry>;

  MarketTraceSet() = default;

  /// The one per-market path: market (region, size) of the normalized
  /// `scenario`, from its CSV override in trace_dir if one exists, else
  /// from the synthetic model. Throws std::invalid_argument for an override
  /// that does not cover [0, horizon).
  [[nodiscard]] static EntryPtr generate_market(const Scenario& scenario,
                                                const std::string& region,
                                                cloud::InstanceSize size);

  /// Identity of one market's trace: (seed, horizon, trace_dir, region,
  /// size) of the normalized `scenario`.
  [[nodiscard]] static std::string market_key(const Scenario& scenario,
                                              const std::string& region,
                                              cloud::InstanceSize size);

  /// An empty set for the normalized `scenario`, its entries reserved.
  [[nodiscard]] static std::shared_ptr<MarketTraceSet> empty_for(
      const Scenario& scenario);

  std::vector<EntryPtr> entries_;
  std::string key_;
  std::uint64_t seed_ = 0;
  sim::SimTime horizon_ = 0;
};

/// Thread-safe memo of market traces, keyed per market — (seed, horizon,
/// trace_dir, region, size) — with a memo of whole sets on top: a repeated
/// get() of one scenario returns the same set object, and sets that overlap
/// share one Entry per common market.
///
/// Concurrent requests for one key block on a single generation
/// (shared_future) instead of duplicating it. A caller claims, under one
/// lock, every market of its set that nobody has claimed yet, and generates
/// all of its claims before it waits on anyone else's, so pool threads
/// asking for overlapping sets in any order cannot deadlock. A failed
/// generation evicts only its own claim, then every waiter sees the error
/// and a retry regenerates.
class TraceCache {
 public:
  /// The memoized set for `scenario`, generating missing markets on first
  /// request.
  [[nodiscard]] std::shared_ptr<const MarketTraceSet> get(
      const Scenario& scenario);

  /// Number of sets actually assembled (set-level cache misses).
  [[nodiscard]] std::size_t generations() const;
  /// Number of get() calls served from the set memo.
  [[nodiscard]] std::size_t hits() const;
  /// Number of market traces actually generated (market-level misses).
  [[nodiscard]] std::size_t market_generations() const;

  /// Drops every memoized set and market (in-flight generations complete
  /// unaffected).
  void clear();

 private:
  /// Memoized values of one kind, each under the ticket of the claim that
  /// produces it: an owner whose generation fails evicts its key only if
  /// the key still holds its own ticket.
  template <class T>
  struct Memo {
    struct Slot {
      std::shared_future<T> value;
      std::uint64_t ticket = 0;
    };
    std::unordered_map<std::string, Slot> slots;
    std::size_t generated = 0;
  };
  template <class T>
  struct Claim;

  /// Under mu_: the existing slot for `key`, or a new claim on it.
  template <class T>
  Claim<T> claim(Memo<T>& memo, const std::string& key);
  /// Outside mu_: fulfils an owned claim with make(), or evicts it and
  /// stores the exception make() threw.
  template <class T, class Make>
  void fulfil(Memo<T>& memo, Claim<T>& owned, Make&& make);

  using SetPtr = std::shared_ptr<const MarketTraceSet>;

  mutable std::mutex mu_;
  Memo<SetPtr> sets_;
  Memo<MarketTraceSet::EntryPtr> markets_;
  std::uint64_t next_ticket_ = 0;
  std::size_t hits_ = 0;
};

}  // namespace spothost::sched
