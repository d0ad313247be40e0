// Umbrella header for the spothost library.
//
// spothost reproduces "Cutting the Cost of Hosting Online Services Using
// Cloud Spot Markets" (HPDC'15): a cloud scheduler that hosts always-on
// services on spot servers with proactive bidding and VM-migration
// mechanisms, evaluated on a discrete-event cloud simulator.
//
// Typical entry points:
//   sched::Scenario / sched::World      — build a simulated cloud
//   sched::SchedulerConfig / presets    — configure the scheduler
//   metrics::run_hosting_scenario       — one full hosting run
//   metrics::SweepRunner                — multi-seed, multi-arm runs,
//                                         memoized traces
//   live::WallClock + HostingSession    — the same policy layer on wall time
//   live::PriceFeed / FeedDriver        — streamed price updates (serve mode)
//   exec::ThreadPool                    — the shared bounded worker pool
//   obs::Tracer + sinks                 — structured run tracing
//   faults::FaultPlan / FaultInjector   — deterministic fault injection
#pragma once

#include "cloud/billing.hpp"
#include "cloud/instance_types.hpp"
#include "exec/env.hpp"
#include "exec/thread_pool.hpp"
#include "cloud/market.hpp"
#include "cloud/provider.hpp"
#include "cloud/volume.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "live/feed_driver.hpp"
#include "live/hosting_session.hpp"
#include "live/price_feed.hpp"
#include "live/wall_clock.hpp"
#include "metrics/experiment.hpp"
#include "metrics/run_metrics.hpp"
#include "metrics/sweep.hpp"
#include "metrics/table.hpp"
#include "obs/counter_sink.hpp"
#include "obs/event.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/profile.hpp"
#include "obs/ring_sink.hpp"
#include "obs/sink.hpp"
#include "sched/analysis.hpp"
#include "sched/baselines.hpp"
#include "sched/bid_advisor.hpp"
#include "sched/bidding.hpp"
#include "sched/config.hpp"
#include "sched/fleet.hpp"
#include "sched/market_selection.hpp"
#include "sched/market_traces.hpp"
#include "sched/market_watcher.hpp"
#include "sched/placement.hpp"
#include "sched/policy_zoo.hpp"
#include "sched/scheduler.hpp"
#include "sched/scheduler_config.hpp"
#include "simcore/logging.hpp"
#include "simcore/rng.hpp"
#include "simcore/simulation.hpp"
#include "simcore/time.hpp"
#include "trace/auction_market.hpp"
#include "trace/csv.hpp"
#include "trace/features.hpp"
#include "trace/price_trace.hpp"
#include "trace/profiles.hpp"
#include "trace/stats.hpp"
#include "trace/synthetic.hpp"
#include "virt/checkpoint.hpp"
#include "virt/checkpoint_process.hpp"
#include "virt/live_migration.hpp"
#include "virt/mechanisms.hpp"
#include "virt/memory_model.hpp"
#include "virt/nested.hpp"
#include "virt/network_model.hpp"
#include "virt/restore.hpp"
#include "virt/vm.hpp"
#include "workload/availability.hpp"
#include "workload/diurnal.hpp"
#include "workload/endpoint.hpp"
#include "workload/experience.hpp"
#include "workload/group.hpp"
#include "workload/iobench.hpp"
#include "workload/outage_stats.hpp"
#include "workload/queueing.hpp"
#include "workload/service.hpp"
#include "workload/tpcw.hpp"
