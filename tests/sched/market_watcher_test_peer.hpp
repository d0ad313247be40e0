// Test-only access to MarketWatcher's deliver-to-all oracle.
//
// In oracle mode the watcher ignores price bands and delivers every price
// step to every listener, as fan-out did before bands existed, and it
// checks each recipient's stored bands against fresh price_band() answers
// before every delivery, throwing std::logic_error that names the listener
// on a mismatch. Band-routed runs must reproduce the oracle's bytes.
#pragma once

#include "sched/market_watcher.hpp"

namespace spothost::sched {

class MarketWatcherTestPeer {
 public:
  /// Switches `watcher` to oracle mode. Fleets and schedulers hand out
  /// their watcher const; the switch exists for tests only, so the const
  /// is cast away here (the watcher itself is never a const object).
  static void deliver_to_all(const MarketWatcher& watcher) {
    const_cast<MarketWatcher&>(watcher).deliver_to_all_ = true;
  }
};

}  // namespace spothost::sched
