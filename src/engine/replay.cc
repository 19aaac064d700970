#include "src/engine/replay.h"

#include <algorithm>

namespace rush {

RunResult engine_run_result(const SchedulerEngine& engine) {
  RunResult result;
  const EngineStats& stats = engine.stats();
  result.scheduling_events = stats.scheduling_events;
  result.assignments = stats.assignments;
  result.task_failures = stats.task_failures;
  result.dispatch_waves = stats.dispatch_waves;
  result.view_updates = stats.view_updates;
  result.speculative_attempts = stats.speculative_attempts;
  result.speculative_kills = stats.speculative_kills;
  result.jobs = engine.job_records();
  for (const JobRecord& record : result.jobs) {
    if (record.completion >= kNever) {
      result.completed = false;
    } else {
      result.makespan = std::max(result.makespan, record.completion);
    }
  }
  return result;
}

RunResult replay_events(const EngineConfig& config, Scheduler& scheduler,
                        const std::vector<EngineEvent>& events,
                        ClusterObserver* observer, EngineSink* sink) {
  SchedulerEngine engine(config, scheduler);
  engine.set_observer(observer);
  engine.set_sink(sink);
  for (const EngineEvent& event : events) engine.process(event);
  engine.flush();
  return engine_run_result(engine);
}

void restore_and_replay(SchedulerEngine& engine, const Snapshot& snapshot,
                        const std::vector<EngineEvent>& events, std::size_t begin) {
  engine.restore_state(snapshot);
  for (std::size_t i = begin; i < events.size(); ++i) engine.process(events[i]);
  engine.flush();
}

std::size_t replay_begin_after_last_snapshot(const std::vector<EngineEvent>& events) {
  for (std::size_t i = events.size(); i > 0; --i) {
    if (events[i - 1].kind == EngineEvent::Kind::kSnapshotRequested) return i;
  }
  return 0;
}

}  // namespace rush
