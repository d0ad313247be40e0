// Shared pieces of the benchmark harness: run options, the result every
// workload fills in, wall-clock helpers, the process memory high-water mark,
// and the in-memory span recorder of the traced pass.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace spothost::obs {
class CounterSink;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 20150615;
  double seconds = 30.0;
  bool trace = false;
  bool tiny = false;          ///< smoke-test sizes
  std::string spans_path;     ///< traced pass: where spans are written
};

/// What one invocation reports. `outputs` is a JSON object of the values
/// the program computed, compared by run.py against recorded ones.
struct Result {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::string outputs = "{}";

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// Records a failed check (printed to stderr) and marks the run incorrect.
  void fail(const std::string& what);
};

/// Median of the samples (by value; empty -> 0).
[[nodiscard]] double median(std::vector<double> xs);
/// Nearest-rank percentile, p in [0, 100].
[[nodiscard]] double percentile(std::vector<double> xs, double p);

/// Prints every sample of a phase to stderr ("perfbench: run_s 4.1 4.3 ...").
void log_samples(const char* phase, const std::vector<double>& xs);

/// Resets the process's peak-RSS mark to its current RSS, so the peak read
/// later belongs to the work done after this call.
void reset_peak_rss();
/// VmHWM of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// JSON string literal for `s`.
[[nodiscard]] std::string json_string(std::string_view s);
/// Shortest decimal that reads back as exactly `x`.
[[nodiscard]] std::string json_number(double x);

/// One measured repetition, as its child process reports it.
struct Rep {
  double setup_s = 0.0;
  double run_s = 0.0;
  double peak_rss_mb = 0.0;  ///< VmHWM of the child during the repetition
  std::string outputs;       ///< the checked outputs, JSON
};

/// Runs `rep` in a forked child and returns what it measured. Every
/// repetition thus starts from the same process state (heap, allocator
/// thresholds, no worker threads yet), as a fresh run of the program would;
/// the child's peak-RSS mark is reset before `rep` starts. The caller must
/// not have started any thread.
[[nodiscard]] Rep in_child(const std::function<Rep()>& rep);

/// Calls `repetition()` at least `min_reps` times, then again while one more
/// (as long as the median so far) still fits in `budget_s` seconds.
template <class Fn>
void repeat_within(double budget_s, int min_reps, Fn&& repetition) {
  const auto start = Clock::now();
  std::vector<double> took;
  for (;;) {
    const auto t0 = Clock::now();
    repetition();
    took.push_back(seconds_between(t0, Clock::now()));
    const double elapsed = seconds_between(start, Clock::now());
    if (static_cast<int>(took.size()) >= min_reps &&
        elapsed + median(took) > budget_s) {
      return;
    }
  }
}

/// Spans of the traced pass, kept in memory and written out at the end.
/// Each span has a name, start, end and parent; a span's self time is its
/// duration minus the time its children cover. Per-name totals are exact;
/// the individual span list keeps the first `keep` spans only, so a run
/// with a million price steps does not hold a million records.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t keep = 200000);

  /// Opens a span as a child of the innermost open span.
  void open(std::string_view name) { open(id(name)); }
  /// Same, for a name interned with id().
  void open(std::uint32_t name);
  /// Closes the innermost open span.
  void close();
  /// Adds an already-finished child of the innermost open span.
  void leaf(std::string_view name, Clock::time_point start, Clock::time_point end);
  /// Same, for a name interned with id().
  void leaf(std::uint32_t name, Clock::time_point start, Clock::time_point end);
  [[nodiscard]] std::uint32_t id(std::string_view name);

  /// Total seconds of every span named `name`.
  [[nodiscard]] double total_s(std::string_view name) const;

  /// Prints the per-name table (count, total, self, share of the root) to
  /// `out`, and writes every kept span to `path` (tab-separated).
  void report(std::FILE* out) const;
  void write(const std::string& path) const;

 private:
  struct Span {
    std::uint32_t name;
    std::int32_t parent;  ///< index into spans_, -1 for a root or dropped parent
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  struct Open {
    std::uint32_t name;
    Clock::time_point start;
    std::int64_t child_ns;
    std::int32_t kept;  ///< index in spans_, -1 if not kept
  };
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  void finish(std::uint32_t name, Clock::time_point start, Clock::time_point end,
              std::int64_t child_ns, std::int32_t kept);
  [[nodiscard]] std::int64_t ns(Clock::time_point t) const;

  Clock::time_point origin_;
  std::size_t keep_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> name_ids_;
  std::vector<Totals> totals_;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
  std::uint64_t dropped_ = 0;
};

/// RAII span.
class Scoped {
 public:
  Scoped(SpanRecorder& spans, std::string_view name) : spans_(spans) {
    spans_.open(name);
  }
  Scoped(SpanRecorder& spans, std::uint32_t name) : spans_(spans) {
    spans_.open(name);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  ~Scoped() { spans_.close(); }

 private:
  SpanRecorder& spans_;
};

/// The per-layer metrics of the traced pass. Every workload reports every
/// field; a layer a workload does not run through reads 0.
struct Layers {
  double trace_generate_s = 0, trace_sets = 0, trace_cache_hits = 0;
  double sched_world_build_s = 0, sched_fleet_build_s = 0, sched_fanout_s = 0;
  double sched_deliveries = 0, sched_crossings = 0;
  double sched_migrations_forced = 0, sched_migrations_planned = 0,
         sched_migrations_reverse = 0;
  double sched_retries = 0, sched_degraded = 0;
  double sched_finalize_s = 0, sched_metrics_s = 0;
  double cloud_price_steps = 0, cloud_price_step_s = 0, cloud_bids = 0,
         cloud_spot_request_failures = 0, cloud_ledger_records = 0;
  double simcore_events = 0, simcore_loop_s = 0, simcore_pending_peak = 0,
         simcore_between_steps_s = 0;
  double faults_injected = 0;
  double metrics_cells = 0, metrics_cell_ms_p50 = 0, metrics_cell_ms_p99 = 0,
         metrics_cell_samples = 0, metrics_world_build_s = 0;
  double metrics_run_all_s = 0;  ///< run_all() of the parallel pass
  double exec_workers = 0, exec_parallel_efficiency = 0;
  double live_parse_s = 0, live_rows = 0, live_rows_rejected = 0,
         live_drive_s = 0, live_updates = 0;
  double obs_trace_events = 0;
  /// Median run phase of the traced passes over that of the untraced ones,
  /// minus one, in percent.
  double obs_trace_overhead_pct = 0;
  double traced_run_s = 0;  ///< run phase of the reported traced pass
};

/// obs.trace_overhead_pct from the run phases of both kinds of pass.
[[nodiscard]] double overhead_pct(const std::vector<double>& traced,
                                  const std::vector<double>& untraced);

/// Fills the per-layer counts an obs::CounterSink attached as the run's
/// tracer provides: crossings, migrations by class, retries, degradations,
/// bids, failed spot requests and the total event count.
void add_event_counts(const spothost::obs::CounterSink& counts, Layers& layers);

/// Appends every per-layer metric, in a fixed order, to `result`.
void add_layer_metrics(Result& result, const Layers& layers);

// One function per workload (fleet.cpp, sweep.cpp, serve.cpp).
Result run_fleet(const Options& options);
Result run_sweep(const Options& options);
Result run_serve(const Options& options);

}  // namespace perfbench
