// The traced run's WAL replay: per-layer numbers taken from outside src/.
//
// A session's write-ahead log is fed twice through a bare SchedulerEngine
// (same scheduler configuration, view audits off):
//
//   untraced  the scheduler itself, a sink that appends the WAL and digests
//             each wave — the reference for trace.overhead_frac;
//   traced    the scheduler behind TimedScheduler, a forwarding decorator
//             that times assign_containers / on_job_arrival /
//             on_task_finished, a sink that times EventLogWriter::append, a
//             clock around every SchedulerEngine::process, and before/after
//             deltas of the public plan_stats() and stats() counters.
//
// Both replays must reproduce the session's waves (grants and predictions)
// byte for byte.  The engine extracts predictions only from a RushScheduler
// it can see, so behind the decorator the traced sink rebuilds them from the
// wrapped scheduler's current plan, field for field as the engine does.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/session.h"
#include "src/engine/event.h"

namespace perfbench {

enum class SchedulerKind { kRush, kFair };

struct ReplayResult {
  std::string untraced_digest;
  std::string traced_digest;
  long untraced_waves = 0;
  long traced_waves = 0;
  double untraced_seconds = 0.0;
  double traced_seconds = 0.0;
  std::vector<rush::JobRecord> records;

  // Per window event.
  Samples process_us;
  Samples self_us;
  Samples append_us;
  // Per scheduler call in the window.
  Samples assign_us;
  Samples arrival_us;
  Samples task_finished_us;
  // Per planning pass in the window.
  Samples wcde_us_per_pass;
  Samples peel_us_per_pass;
  Samples map_us_per_pass;
  Samples probes_per_pass;
  Samples layers_replayed_per_pass;
  Samples batch_rows_per_pass;
  // Per snapshot over the whole replay (one at the end when the log has no
  // snapshot marker).
  Samples snapshot_us;
  std::size_t last_snapshot_bytes = 0;

  // Window sums.
  long window_events = 0;
  long waves = 0;
  long view_updates = 0;
  long grants = 0;
  long passes = 0;
  long elided = 0;
  long cache_hits = 0;
  long cache_misses = 0;
  double scheduler_us = 0.0;
  double wal_bytes_per_event = 0.0;
};

/// Replays `events`, taking per-layer samples for the events with index in
/// [window_begin, window_end).  Temporary WAL and snapshot files go to `dir`.
ReplayResult replay_wal(const std::vector<rush::EngineEvent>& events, SchedulerKind kind,
                        std::size_t window_begin, std::size_t window_end,
                        const std::string& dir);

/// Adds every per-layer metric of the traced run to `report`.  `session`
/// is null for the simulator workload (no protocol or daemon layer);
/// `recovered_events` is what recovery replayed for the session.
void report_layers(Report& report, const SessionResult* session, const ReplayResult& replay,
                   SchedulerKind kind, std::size_t recovered_events);

}  // namespace perfbench
