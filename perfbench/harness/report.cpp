#include "report.hpp"

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cerrno>
#include <csignal>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "obs/counter_sink.hpp"

namespace perfbench {

void Result::fail(const std::string& what) {
  correct = false;
  std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(xs.size()));
  const auto idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return xs[std::min(idx, xs.size() - 1)];
}

Rep in_child(const std::function<Rep()>& rep) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);  // nothing buffered may be written twice
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive a killed harness
    ::close(pipe_fds[0]);
    std::string msg;
    int code = 0;
    try {
      reset_peak_rss();
      const Rep r = rep();
      msg = json_number(r.setup_s) + " " + json_number(r.run_s) + " " +
            json_number(r.peak_rss_mb) + "\n" + r.outputs;
    } catch (const std::exception& e) {
      msg = e.what();
      code = 1;
    }
    std::size_t done = 0;
    while (done < msg.size()) {
      const auto n = ::write(pipe_fds[1], msg.data() + done, msg.size() - done);
      if (n <= 0) break;
      done += static_cast<std::size_t>(n);
    }
    std::fflush(nullptr);
    ::_exit(code);  // not exit(): the parent's atexit handlers are not ours
  }
  ::close(pipe_fds[1]);
  std::string msg;
  char buf[65536];
  for (;;) {
    const auto n = ::read(pipe_fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    msg.append(buf, static_cast<std::size_t>(n));
  }
  ::close(pipe_fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("repetition failed in its child process: " +
                             (msg.empty() ? std::string("no message") : msg));
  }
  Rep r;
  std::istringstream in(msg);
  if (!(in >> r.setup_s >> r.run_s >> r.peak_rss_mb)) {
    throw std::runtime_error("bad report from child: " + msg);
  }
  in.ignore(1);
  std::getline(in, r.outputs, '\0');
  return r;
}

void log_samples(const char* phase, const std::vector<double>& xs) {
  std::fprintf(stderr, "perfbench: %s", phase);
  for (const double x : xs) std::fprintf(stderr, " %.4f", x);
  std::fprintf(stderr, "\n");
}

void reset_peak_rss() {
  // "5" resets VmHWM to the current RSS (proc(5), /proc/pid/clear_refs).
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) throw std::runtime_error("cannot reset peak RSS via clear_refs");
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double x) {
  if (!std::isfinite(x)) throw std::runtime_error("non-finite metric value");
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, x);
  return std::string(buf, r.ptr);
}

void add_event_counts(const spothost::obs::CounterSink& counts, Layers& l) {
  using spothost::obs::EventKind;
  namespace code = spothost::obs::code;
  auto n = [&](EventKind k) { return static_cast<double>(counts.count(k)); };
  auto n_code = [&](EventKind k, std::uint8_t c) {
    return static_cast<double>(counts.count(k, c));
  };
  l.sched_crossings = n(EventKind::kPriceCrossing);
  // As sched::SchedulerStats counts them: forced moves when they begin,
  // planned and reverse moves when they switch over.
  l.sched_migrations_forced = n_code(EventKind::kMigrationBegin, code::kForced);
  l.sched_migrations_planned = n_code(EventKind::kMigrationSwitchover, code::kPlanned);
  l.sched_migrations_reverse = n_code(EventKind::kMigrationSwitchover, code::kReverse);
  l.sched_retries = n(EventKind::kRetryScheduled);
  l.sched_degraded = n(EventKind::kDegradedMode);
  l.cloud_bids = n(EventKind::kBidPlaced);
  l.cloud_spot_request_failures = n(EventKind::kSpotRequestFailed);
  l.obs_trace_events = static_cast<double>(counts.total());
}

void add_layer_metrics(Result& r, const Layers& l) {
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  r.add("trace.generate_s", l.trace_generate_s, "s");
  r.add("trace.sets", l.trace_sets, "count");
  r.add("trace.cache_hits", l.trace_cache_hits, "count");
  r.add("sched.world_build_s", l.sched_world_build_s, "s");
  r.add("sched.fleet_build_s", l.sched_fleet_build_s, "s");
  r.add("sched.fanout_s", l.sched_fanout_s, "s");
  r.add("sched.fanout_pct", 100.0 * ratio(l.sched_fanout_s, l.traced_run_s), "%");
  r.add("sched.deliveries", l.sched_deliveries, "count");
  r.add("sched.crossings", l.sched_crossings, "count");
  r.add("sched.useful_delivery_ratio", ratio(l.sched_crossings, l.sched_deliveries),
        "ratio");
  r.add("sched.migrations_forced", l.sched_migrations_forced, "count");
  r.add("sched.migrations_planned", l.sched_migrations_planned, "count");
  r.add("sched.migrations_reverse", l.sched_migrations_reverse, "count");
  r.add("sched.retries", l.sched_retries, "count");
  r.add("sched.degraded", l.sched_degraded, "count");
  r.add("sched.finalize_s", l.sched_finalize_s, "s");
  r.add("sched.metrics_s", l.sched_metrics_s, "s");
  r.add("cloud.price_steps", l.cloud_price_steps, "count");
  r.add("cloud.price_step_s", l.cloud_price_step_s, "s");
  r.add("cloud.price_step_pct", 100.0 * ratio(l.cloud_price_step_s, l.traced_run_s),
        "%");
  r.add("cloud.bids", l.cloud_bids, "count");
  r.add("cloud.spot_request_failures", l.cloud_spot_request_failures, "count");
  r.add("cloud.ledger_records", l.cloud_ledger_records, "count");
  r.add("simcore.events", l.simcore_events, "count");
  r.add("simcore.events_per_s", ratio(l.simcore_events, l.simcore_loop_s), "1/s");
  r.add("simcore.pending_peak", l.simcore_pending_peak, "count");
  r.add("simcore.between_steps_s", l.simcore_between_steps_s, "s");
  r.add("simcore.between_steps_pct",
        100.0 * ratio(l.simcore_between_steps_s, l.traced_run_s), "%");
  r.add("faults.injected", l.faults_injected, "count");
  r.add("metrics.cells", l.metrics_cells, "count");
  r.add("metrics.cell_ms_p50", l.metrics_cell_ms_p50, "ms");
  r.add("metrics.cell_ms_p99", l.metrics_cell_ms_p99, "ms");
  r.add("metrics.cell_samples", l.metrics_cell_samples, "count");
  r.add("metrics.world_build_s", l.metrics_world_build_s, "s");
  r.add("metrics.cells_per_s", ratio(l.metrics_cells, l.metrics_run_all_s), "1/s");
  r.add("exec.workers", l.exec_workers, "count");
  r.add("exec.parallel_efficiency", l.exec_parallel_efficiency, "ratio");
  r.add("live.parse_s", l.live_parse_s, "s");
  r.add("live.rows", l.live_rows, "count");
  r.add("live.rows_rejected", l.live_rows_rejected, "count");
  r.add("live.drive_s", l.live_drive_s, "s");
  r.add("live.updates", l.live_updates, "count");
  r.add("live.update_ns", 1e9 * ratio(l.live_drive_s, l.live_updates), "ns");
  r.add("live.updates_per_s", ratio(l.live_updates, l.live_drive_s), "1/s");
  r.add("obs.trace_events", l.obs_trace_events, "count");
  r.add("obs.trace_overhead_pct", l.obs_trace_overhead_pct, "%");
}

double overhead_pct(const std::vector<double>& traced,
                    const std::vector<double>& untraced) {
  return 100.0 * (median(traced) / median(untraced) - 1.0);
}

SpanRecorder::SpanRecorder(std::size_t keep) : origin_(Clock::now()), keep_(keep) {}

std::uint32_t SpanRecorder::id(std::string_view name) {
  const auto [it, inserted] =
      name_ids_.try_emplace(std::string(name), static_cast<std::uint32_t>(names_.size()));
  if (inserted) {
    names_.emplace_back(name);
    totals_.emplace_back();
  }
  return it->second;
}

std::int64_t SpanRecorder::ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
}

void SpanRecorder::open(std::uint32_t n) {
  std::int32_t kept = -1;
  const auto now = Clock::now();
  if (spans_.size() < keep_) {
    kept = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{n, stack_.empty() ? -1 : stack_.back().kept, ns(now), 0});
  } else {
    ++dropped_;
  }
  stack_.push_back(Open{n, now, 0, kept});
}

void SpanRecorder::close() {
  if (stack_.empty()) throw std::logic_error("SpanRecorder::close with no open span");
  const Open top = stack_.back();
  stack_.pop_back();
  finish(top.name, top.start, Clock::now(), top.child_ns, top.kept);
}

void SpanRecorder::leaf(std::string_view name, Clock::time_point start,
                        Clock::time_point end) {
  leaf(id(name), start, end);
}

void SpanRecorder::leaf(std::uint32_t name, Clock::time_point start,
                        Clock::time_point end) {
  std::int32_t kept = -1;
  if (spans_.size() < keep_) {
    kept = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(
        Span{name, stack_.empty() ? -1 : stack_.back().kept, ns(start), 0});
  } else {
    ++dropped_;
  }
  finish(name, start, end, 0, kept);
}

void SpanRecorder::finish(std::uint32_t name, Clock::time_point start,
                          Clock::time_point end, std::int64_t child_ns,
                          std::int32_t kept) {
  const std::int64_t d =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count();
  if (kept >= 0) spans_[static_cast<std::size_t>(kept)].end_ns = ns(end);
  Totals& t = totals_[name];
  ++t.count;
  t.total_ns += d;
  t.self_ns += d - child_ns;
  if (!stack_.empty()) stack_.back().child_ns += d;
}

double SpanRecorder::total_s(std::string_view name) const {
  const auto it = name_ids_.find(std::string(name));
  return it == name_ids_.end() ? 0.0 : 1e-9 * static_cast<double>(totals_[it->second].total_ns);
}

void SpanRecorder::report(std::FILE* out) const {
  std::int64_t roots = 0;
  for (const Span& s : spans_) {
    if (s.parent < 0) roots += s.end_ns - s.start_ns;
  }
  std::vector<std::size_t> order(names_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return totals_[a].self_ns > totals_[b].self_ns;
  });
  std::fprintf(out, "%-28s %10s %12s %12s %8s\n", "span", "count", "total_s",
               "self_s", "self_%");
  for (const std::size_t i : order) {
    const Totals& t = totals_[i];
    std::fprintf(out, "%-28s %10llu %12.6f %12.6f %8.2f\n", names_[i].c_str(),
                 static_cast<unsigned long long>(t.count), 1e-9 * static_cast<double>(t.total_ns),
                 1e-9 * static_cast<double>(t.self_ns),
                 roots > 0 ? 100.0 * static_cast<double>(t.self_ns) / static_cast<double>(roots) : 0.0);
  }
  if (dropped_ > 0) {
    std::fprintf(out, "(%llu spans beyond the first %zu are in the totals only)\n",
                 static_cast<unsigned long long>(dropped_), keep_);
  }
}

void SpanRecorder::write(const std::string& path) const {
  std::ofstream f(path);
  f << "# id\tparent\tname\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << i << '\t' << s.parent << '\t' << names_[s.name] << '\t' << s.start_ns
      << '\t' << s.end_ns << '\n';
  }
  f << "# totals: name\tcount\ttotal_ns\tself_ns (dropped spans: " << dropped_
    << ")\n";
  for (std::size_t i = 0; i < names_.size(); ++i) {
    f << "# " << names_[i] << '\t' << totals_[i].count << '\t'
      << totals_[i].total_ns << '\t' << totals_[i].self_ns << '\n';
  }
  if (!f) throw std::runtime_error("cannot write spans to " + path);
}

}  // namespace perfbench
