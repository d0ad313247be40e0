#include "sched/market_traces.hpp"

#include <filesystem>
#include <stdexcept>
#include <utility>

#include "trace/csv.hpp"
#include "trace/synthetic.hpp"

namespace spothost::sched {

MarketTraceSet::EntryPtr MarketTraceSet::generate_market(
    const Scenario& scenario, const std::string& region,
    cloud::InstanceSize size) {
  const std::string size_name{cloud::to_string(size)};
  const double od = cloud::on_demand_price(size, region);

  // Measured trace override, if one is on disk for this market.
  if (!scenario.trace_dir.empty()) {
    const std::filesystem::path path =
        std::filesystem::path(scenario.trace_dir) /
        (region + "_" + size_name + ".csv");
    if (std::filesystem::exists(path)) {
      trace::PriceTrace price_trace = trace::load_csv_file(path.string());
      if (price_trace.end() < scenario.horizon) {
        throw std::invalid_argument("MarketTraceSet: trace " + path.string() +
                                    " shorter than the scenario horizon");
      }
      if (price_trace.start() > 0) {
        throw std::invalid_argument("MarketTraceSet: trace " + path.string() +
                                    " starts after the scenario start");
      }
      return std::make_shared<const Entry>(
          Entry{cloud::MarketId{region, size}, std::move(price_trace), od});
    }
  }

  // Every stream is named, so a market's draws never depend on which other
  // markets the scenario holds. The region's shared spike schedule (the
  // source of intra-region price correlation) is redrawn from its own
  // stream for each market that adopts from it.
  const sim::RngFactory rng_factory(scenario.seed);
  auto shared_rng = rng_factory.stream("shared-spikes/" + region);
  const auto shared = trace::SyntheticSpotModel::generate_shared_spikes(
      trace::region_shared_spike_rate(region), trace::profile_for(region, "small"),
      scenario.horizon, shared_rng);
  auto market_rng = rng_factory.stream("market/" + region + "/" + size_name);
  return std::make_shared<const Entry>(
      Entry{cloud::MarketId{region, size},
            trace::SyntheticSpotModel::generate(trace::profile_for(region, size_name),
                                                od, scenario.horizon, market_rng,
                                                &shared),
            od});
}

std::string MarketTraceSet::market_key(const Scenario& scenario,
                                       const std::string& region,
                                       cloud::InstanceSize size) {
  return std::to_string(scenario.seed) + '|' + std::to_string(scenario.horizon) +
         '|' + scenario.trace_dir + '|' + region + '|' +
         std::string(cloud::to_string(size));
}

std::shared_ptr<MarketTraceSet> MarketTraceSet::empty_for(const Scenario& scenario) {
  auto set = std::shared_ptr<MarketTraceSet>(new MarketTraceSet());
  set->key_ = cache_key(scenario);
  set->seed_ = scenario.seed;
  set->horizon_ = scenario.horizon;
  set->entries_.reserve(scenario.regions.size() * scenario.sizes.size());
  return set;
}

std::shared_ptr<const MarketTraceSet> MarketTraceSet::generate(
    const Scenario& scenario_in) {
  const Scenario scenario = normalized_scenario(scenario_in);
  auto set = empty_for(scenario);
  for (const auto& region : scenario.regions) {
    for (const auto size : scenario.sizes) {
      set->entries_.push_back(generate_market(scenario, region, size));
    }
  }
  return set;
}

std::string MarketTraceSet::cache_key(const Scenario& scenario_in) {
  const Scenario scenario = normalized_scenario(scenario_in);
  std::string key = std::to_string(scenario.seed) + '|' +
                    std::to_string(scenario.horizon) + '|' +
                    scenario.trace_dir + '|';
  for (const auto& region : scenario.regions) {
    key += region;
    key += ',';
  }
  key += '|';
  for (const auto size : scenario.sizes) {
    key += cloud::to_string(size);
    key += ',';
  }
  return key;
}

const trace::PriceTrace& MarketTraceSet::prices(const cloud::MarketId& id) const {
  for (const auto& e : entries_) {
    if (e->id == id) return e->prices;
  }
  throw std::out_of_range("MarketTraceSet: no market " + id.str());
}

std::vector<trace::PriceTrace> MarketTraceSet::region_traces(
    const std::string& region) const {
  std::vector<trace::PriceTrace> out;
  for (const auto& e : entries_) {
    if (e->id.region == region) out.push_back(e->prices);
  }
  return out;
}

template <class T>
struct TraceCache::Claim {
  std::string key;
  std::shared_future<T> value;
  std::promise<T> promise;   ///< set by the owner only
  std::uint64_t ticket = 0;  ///< nonzero iff this caller owns the generation

  [[nodiscard]] bool owner() const noexcept { return ticket != 0; }
};

template <class T>
TraceCache::Claim<T> TraceCache::claim(Memo<T>& memo, const std::string& key) {
  Claim<T> c;
  c.key = key;
  const auto it = memo.slots.find(key);
  if (it != memo.slots.end()) {
    c.value = it->second.value;
  } else {
    c.value = c.promise.get_future().share();
    c.ticket = ++next_ticket_;
    memo.slots.emplace(key, typename Memo<T>::Slot{c.value, c.ticket});
    ++memo.generated;
  }
  return c;
}

template <class T, class Make>
void TraceCache::fulfil(Memo<T>& memo, Claim<T>& owned, Make&& make) {
  try {
    owned.promise.set_value(make());
  } catch (...) {
    // Evict before publishing the error, so a waiter that retries on seeing
    // it regenerates; a newer claim on the key (after clear()) stays.
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = memo.slots.find(owned.key);
      if (it != memo.slots.end() && it->second.ticket == owned.ticket) {
        memo.slots.erase(it);
      }
    }
    owned.promise.set_exception(std::current_exception());
  }
}

std::shared_ptr<const MarketTraceSet> TraceCache::get(const Scenario& scenario_in) {
  const Scenario scenario = normalized_scenario(scenario_in);
  const std::string set_key = MarketTraceSet::cache_key(scenario);
  Claim<SetPtr> set;
  std::vector<Claim<MarketTraceSet::EntryPtr>> markets;
  {
    // One lock for the set and all of its markets: whatever this call
    // claims, it claims before anyone can wait on it.
    std::lock_guard<std::mutex> lock(mu_);
    set = claim(sets_, set_key);
    if (!set.owner()) {
      ++hits_;
    } else {
      markets.reserve(scenario.regions.size() * scenario.sizes.size());
      for (const auto& region : scenario.regions) {
        for (const auto size : scenario.sizes) {
          markets.push_back(claim(
              markets_, MarketTraceSet::market_key(scenario, region, size)));
        }
      }
    }
  }
  if (set.owner()) {
    // Generate outside the lock, every claimed market before waiting on any
    // other caller's claim: claim owners never wait first, so overlapping
    // sets requested in any order cannot deadlock.
    std::size_t k = 0;
    for (const auto& region : scenario.regions) {
      for (const auto size : scenario.sizes) {
        auto& market = markets[k++];
        if (market.owner()) {
          fulfil(markets_, market, [&] {
            return MarketTraceSet::generate_market(scenario, region, size);
          });
        }
      }
    }
    fulfil(sets_, set, [&] {
      auto out = MarketTraceSet::empty_for(scenario);
      for (auto& market : markets) out->entries_.push_back(market.value.get());
      return SetPtr(std::move(out));
    });
  }
  return set.value.get();
}

std::size_t TraceCache::generations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sets_.generated;
}

std::size_t TraceCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::size_t TraceCache::market_generations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return markets_.generated;
}

void TraceCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  sets_.slots.clear();
  markets_.slots.clear();
}

}  // namespace spothost::sched
