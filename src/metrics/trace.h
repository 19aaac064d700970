// Execution trace recording.
//
// TraceRecorder plugs into EngineSimulation::set_observer (or any
// SchedulerEngine's) and captures every arrival / task start / finish /
// failure / kill / job completion with its timestamp, enabling trace-driven
// post-analysis: cluster utilisation, per-job spans, container timelines,
// CSV export for external plotting.

#pragma once

#include <string>
#include <vector>

#include "src/cluster/cluster.h"

namespace rush {

enum class TraceKind {
  kJobArrival,
  kTaskStart,
  kTaskFinish,
  kTaskFailure,
  kTaskKilled,
  kJobFinish,
};

std::string to_string(TraceKind kind);

struct TraceEvent {
  Seconds time = 0.0;
  TraceKind kind = TraceKind::kJobArrival;
  JobId job = kInvalidJob;
  /// Container index for task events, -1 otherwise.
  int container = -1;
  /// runtime (finish), wasted seconds (failure) or utility (job finish).
  double value = 0.0;
  /// Job name (arrival events only).
  std::string label;
};

class TraceRecorder final : public ClusterObserver {
 public:
  void on_job_arrival(Seconds now, JobId job, const std::string& name) override;
  void on_task_start(Seconds now, JobId job, int container, bool is_reduce) override;
  void on_task_finish(Seconds now, JobId job, int container, Seconds runtime,
                      bool is_reduce) override;
  void on_task_failure(Seconds now, JobId job, int container, Seconds wasted) override;
  void on_task_killed(Seconds now, JobId job, int container) override;
  void on_job_finish(Seconds now, JobId job, Utility utility) override;

  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t count(TraceKind kind) const;

  /// Total container-seconds of completed work (successful attempts only).
  Seconds busy_seconds() const;
  /// Container-seconds lost to failed attempts.
  Seconds wasted_seconds() const;
  /// busy / (capacity * horizon); horizon = time of the last event.
  double utilization(ContainerCount capacity) const;

  /// Writes all events to CSV: time,kind,job,container,value,label.
  void write_csv(const std::string& path) const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace rush
