// Run outcomes and the trace-observer interface of the simulated cluster
// (DESIGN.md §2).
//
// The simulator itself is EngineSimulation (src/engine/simulation.h): the
// SchedulerEngine driven by a virtual clock.  This header keeps the two
// types every layer above the scheduler seam shares — the aggregate
// RunResult of one run, and the passive ClusterObserver that tracing and
// statistics plug into.

#pragma once

#include <string>
#include <vector>

#include "src/cluster/job.h"
#include "src/common/types.h"

namespace rush {

/// Aggregate outcome of one run.
struct RunResult {
  std::vector<JobRecord> jobs;
  /// Completion time of the last job.
  Seconds makespan = 0.0;
  /// Number of scheduling events processed (arrival/finish/failure).
  long scheduling_events = 0;
  /// Number of container assignments made (including backup attempts).
  long assignments = 0;
  /// Failed task attempts across the run (re-executed).
  long task_failures = 0;
  /// Backup attempts launched / killed because a sibling won.
  long speculative_attempts = 0;
  long speculative_kills = 0;
  /// True when the run drained every submitted job before max_time.
  bool completed = true;

  /// Planner overhead profile of the run, copied from the scheduler's
  /// PlanStats by the experiment harness when the scheduler is RUSH (all
  /// zero otherwise).  Plain numbers so the cluster layer needs no
  /// dependency on the planner; microsecond fields accumulate over every
  /// pass, probe counts are hardware-independent.
  long plan_passes = 0;
  long plan_warm_passes = 0;
  long plan_peel_probes = 0;
  long plan_warm_layers = 0;
  double plan_wcde_us = 0.0;
  double plan_peel_us = 0.0;
  double plan_map_us = 0.0;
  long plan_wcde_cache_hits = 0;
  long plan_wcde_cache_misses = 0;
  /// Waves served by the cached plan via replan elision, and peel layers
  /// replayed verbatim from the previous pass (DESIGN.md §5h).
  long plan_elided = 0;
  long plan_layers_replayed = 0;

  /// Scheduler-seam accounting (DESIGN.md §5e): dispatch rounds, and
  /// incremental view refresh passes over the dirty-job set.
  long dispatch_waves = 0;
  long view_updates = 0;
};

/// Passive observer of cluster execution (tracing, statistics).  All hooks
/// default to no-ops; observers must not mutate the cluster.
class ClusterObserver {
 public:
  virtual ~ClusterObserver() = default;
  virtual void on_job_arrival(Seconds /*now*/, JobId /*job*/,
                              const std::string& /*name*/) {}
  virtual void on_task_start(Seconds /*now*/, JobId /*job*/, int /*container*/,
                             bool /*is_reduce*/) {}
  virtual void on_task_finish(Seconds /*now*/, JobId /*job*/, int /*container*/,
                              Seconds /*runtime*/, bool /*is_reduce*/) {}
  virtual void on_task_failure(Seconds /*now*/, JobId /*job*/, int /*container*/,
                               Seconds /*wasted*/) {}
  /// A speculative attempt was killed because a sibling finished first.
  virtual void on_task_killed(Seconds /*now*/, JobId /*job*/, int /*container*/) {}
  virtual void on_job_finish(Seconds /*now*/, JobId /*job*/, Utility /*utility*/) {}
};

}  // namespace rush
