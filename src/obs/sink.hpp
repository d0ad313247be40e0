// TraceSink: the contract every event consumer implements, and Tracer, the
// lightweight fan-out dispatcher emitters hold a pointer to.
//
// Sink contract:
//  * on_event is called synchronously from the emitting component, in
//    simulation order — sinks must not re-enter the simulation;
//  * events arrive with non-decreasing `t` within one run;
//  * sinks are owned by the caller (the Tracer only borrows pointers);
//  * flush() is a hint for buffered sinks (e.g. file writers).
//
// Cost discipline: emitters build a TraceEvent only when the clock's tracer
// is non-null and enabled() (a Tracer with no sinks reports false). The
// provider and the fault injector check before building; a scheduler first
// counts the event in its own table (sched::SchedulerCounts), which its
// stats read, and checks after. An untraced event therefore builds no
// string and allocates nothing.
#pragma once

#include <algorithm>
#include <vector>

#include "obs/event.hpp"

namespace spothost::obs {

class TraceSink {
 public:
  TraceSink() = default;
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;
  virtual ~TraceSink() = default;

  virtual void on_event(const TraceEvent& event) = 0;
  virtual void flush() {}
};

class Tracer {
 public:
  /// Attaches a sink (not owned; must outlive the Tracer or be removed).
  void add_sink(TraceSink* sink) {
    if (sink != nullptr) sinks_.push_back(sink);
  }

  void remove_sink(TraceSink* sink) {
    sinks_.erase(std::remove(sinks_.begin(), sinks_.end(), sink), sinks_.end());
  }

  /// True when at least one sink is attached — emitters check this before
  /// building events whose construction is not free (string fields).
  [[nodiscard]] bool enabled() const noexcept { return !sinks_.empty(); }

  [[nodiscard]] std::size_t sink_count() const noexcept { return sinks_.size(); }

  void emit(const TraceEvent& event) {
    for (TraceSink* sink : sinks_) sink->on_event(event);
  }

  void flush() {
    for (TraceSink* sink : sinks_) sink->flush();
  }

 private:
  std::vector<TraceSink*> sinks_;
};

}  // namespace spothost::obs
