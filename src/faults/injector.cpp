#include "faults/injector.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/event.hpp"
#include "obs/sink.hpp"

namespace spothost::faults {

FaultInjector::FaultInjector(sim::Clock& clock, const sim::RngFactory& rng,
                             FaultPlan plan)
    : clock_(clock), plan_(std::move(plan)) {
  plan_.validate();
  for (const FaultKind kind : kAllFaultKinds) {
    const auto k = static_cast<std::size_t>(kind);
    if (plan_.rate[k] > 0.0) {
      streams_[k] = std::make_unique<sim::RngStream>(
          rng.stream("faults/" + std::string(to_string(kind))));
    }
  }
  for (const auto& [kind, n] : plan_.scheduled) {
    scheduled_[static_cast<std::size_t>(kind)].push_back(n);
  }
  for (auto& list : scheduled_) std::sort(list.begin(), list.end());
}

std::uint64_t FaultInjector::injected_total() const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t n : injected_) total += n;
  return total;
}

std::uint64_t FaultInjector::decide(FaultKind kind) {
  const auto k = static_cast<std::size_t>(kind);
  const std::uint64_t n = ++opportunities_[k];

  // Draw whenever the rate is armed — even if a scheduled hit would decide
  // anyway — so the kind's stream position depends only on its opportunity
  // count, never on the scheduled set.
  bool hit = false;
  if (plan_.rate[k] > 0.0) hit = streams_[k]->chance(plan_.rate[k]);
  if (!hit && std::binary_search(scheduled_[k].begin(), scheduled_[k].end(), n)) {
    hit = true;
  }
  if (!hit) return 0;
  ++injected_[k];
  return n;
}

bool FaultInjector::tracing() const noexcept {
  const obs::Tracer* tracer = clock_.tracer();
  return tracer != nullptr && tracer->enabled();
}

void FaultInjector::emit(FaultKind kind, std::uint64_t opportunity,
                         std::string market, std::uint64_t instance) {
  obs::TraceEvent e;
  e.t = clock_.now();
  e.kind = obs::EventKind::kFaultInjected;
  e.code = static_cast<std::uint8_t>(kind);
  e.instance = instance;
  e.value = static_cast<double>(opportunity);  // which opportunity hit
  e.market = std::move(market);
  clock_.tracer()->emit(e);
}

}  // namespace spothost::faults
