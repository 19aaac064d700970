// The transport-agnostic scheduler engine (DESIGN.md §5j).
//
// SchedulerEngine is the one dispatch path of the repo: it holds the
// scheduler-observable job state (task counts, pending queues, runtime
// samples, utilities), maintains the incremental ClusterView (stable slots
// sorted by ascending job id, refreshed in place from per-job dirty bits),
// and coalesces same-timestamp events into dispatch waves — arrivals flush
// the pending wave and dispatch immediately; completions and failures
// defer to the wave end.  Each wave offers every free container to the
// scheduler in one assign_containers() call.
//
// What it does NOT hold is physics: task runtimes, node speeds and failure
// injection live in the event *source*.  The virtual-clock source
// (EngineSimulation) is the repo's simulator; the wall-clock source (rushd)
// feeds the same engine from a socket.  Because events are the engine's
// only inputs, a recorded event stream replays to byte-identical traces,
// metrics and predictions (replay.h), and a state snapshot plus the
// event-log tail resumes a crashed session bit-exactly.
//
// Speculative execution (SpeculationConfig) is an engine decision, not
// physics: the engine knows each container's grant time and the jobs'
// completed-runtime means, so it picks backups at the end of a wave, kills
// the losing siblings when an attempt finishes, and tells the executor to
// drop their pending completions.  A recorded stream therefore replays
// every backup and kill with no extra event kind.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/job.h"
#include "src/cluster/scheduler.h"
#include "src/common/error.h"
#include "src/common/types.h"
#include "src/engine/event.h"
#include "src/state/snapshot.h"
#include "src/utility/utility_function.h"

namespace rush {

/// Hadoop-style speculative execution (the paper's related work [2],
/// ablation A8): containers a wave leaves idle may run backup copies of
/// straggling attempts; the first attempt to finish wins and its siblings
/// are killed at once.
struct SpeculationConfig {
  bool enabled = false;
  /// An attempt counts as a straggler once its elapsed time exceeds this
  /// multiple of its job's mean completed-task runtime.
  double threshold = 1.5;
  /// Maximum simultaneous attempts per task (original + backups).
  int max_attempts_per_task = 2;
};

struct EngineConfig {
  ContainerCount capacity = 0;
  /// Audits the incremental view against a from-scratch rebuild on every
  /// refresh (src/check/view_audit).
  bool audit_view = kDcheckEnabled;
  SpeculationConfig speculation = {};
};

/// One container grant of a dispatch wave.
struct EngineAssignment {
  JobId job = kInvalidJob;
  int container = -1;
  /// Task index within the job's map (or reduce) list.
  int task_index = -1;
  bool is_reduce = false;
};

/// Per-job completion-time prediction, extracted from the RUSH plan after
/// each wave (empty for schedulers that do not plan): eta_i at level theta
/// and the projected completion the paper's web UI renders.
struct EnginePrediction {
  JobId id = kInvalidJob;
  ContainerSeconds eta = 0.0;
  Seconds target_completion = 0.0;
  Utility utility_level = 0.0;
  bool impossible = false;
  int desired_containers = 0;
};

/// One dispatch wave as seen by sinks: the grants made and the plan's
/// predictions after them.
struct EngineWave {
  Seconds now = 0.0;
  long index = 0;
  ContainerCount free_before = 0;
  ContainerCount free_after = 0;
  std::vector<EngineAssignment> assignments;
  std::vector<EnginePrediction> predictions;
};

/// Pluggable record stream: accepted events (the write-ahead log) and
/// per-wave stats/prediction records (the daemon's client stream).
class EngineSink {
 public:
  virtual ~EngineSink() = default;
  virtual void on_event(const EngineEvent& /*event*/) {}
  virtual void on_wave(const EngineWave& /*wave*/) {}
};

/// Receives each grant to realize it physically — the simulation samples a
/// runtime and schedules the completion event; the daemon streams the
/// assignment to its client, which reports the completion back.
class EngineExecutor {
 public:
  virtual ~EngineExecutor() = default;
  virtual void on_assignment(Seconds now, const EngineAssignment& assignment) = 0;
  /// The attempt on `container` lost a speculative race and was killed:
  /// its pending completion must never reach the engine.  Called only with
  /// speculation on.
  virtual void on_kill(Seconds /*now*/, int /*container*/) {}
};

struct EngineStats {
  long scheduling_events = 0;
  long assignments = 0;
  long task_failures = 0;
  long dispatch_waves = 0;
  long view_updates = 0;
  /// Backup attempts launched / killed because a sibling won.
  long speculative_attempts = 0;
  long speculative_kills = 0;
};

class SchedulerEngine {
 public:
  SchedulerEngine(EngineConfig config, Scheduler& scheduler);

  /// All three hooks are optional, not owned, and must outlive the engine.
  void set_observer(ClusterObserver* observer) { observer_ = observer; }
  void set_sink(EngineSink* sink) { sink_ = sink; }
  void set_executor(EngineExecutor* executor) { executor_ = executor; }

  /// Applies one event.  Event times must be non-decreasing; a later
  /// timestamp first flushes the pending wave of the previous one (the
  /// simulator's wave-end coalescing, restated without a clock).  Returns
  /// the job id for kJobSubmitted events, nullopt otherwise.
  std::optional<JobId> process(const EngineEvent& event);

  /// Ends the current wave: runs the deferred dispatch, emits the wave
  /// record.  Idempotent; call after the last event of a timestamp (event
  /// sources with a clock call it from their wave-end hook).
  void flush();

  Seconds now() const { return now_; }
  ContainerCount capacity() const { return config_.capacity; }
  /// Jobs submitted and not yet finished.
  int unfinished_jobs() const { return unfinished_; }
  long jobs_submitted() const { return static_cast<long>(jobs_.size()); }
  const EngineStats& stats() const { return stats_; }

  /// Final per-job outcomes, ascending id (unknown ids skipped).
  std::vector<JobRecord> job_records() const;

  /// Snapshot seam: writes the "engine" and "scheduler" sections.  The
  /// engine must be flushed (no wave pending); restore rebuilds the view
  /// and derived state, after which the next wave is bit-identical to the
  /// one the original engine would have run (DESIGN.md §5j).
  void save_state(Snapshot& snapshot) const;
  void restore_state(const Snapshot& snapshot);

 private:
  /// Scheduler-observable job state (no physics).
  struct EngineJob {
    JobConfig config;  // arrival overwritten with the submission event time
    JobId id = kInvalidJob;
    std::unique_ptr<UtilityFunction> utility;
    int maps_total = 0;
    int reduces_total = 0;
    int maps_completed = 0;
    int completed = 0;
    int running = 0;
    int failures = 0;
    bool finished = false;
    std::vector<char> map_done;
    std::vector<char> reduce_done;
    std::vector<int> pending_maps;
    std::vector<int> pending_reduces;
    std::vector<Seconds> runtime_samples;
    /// Running sum of runtime_samples, in sample order (the straggler
    /// mean); rebuilt from the samples on restore.
    double sample_sum = 0.0;
    Seconds completion = kNever;

    int dispatchable() const;
    int total_tasks() const { return maps_total + reduces_total; }
  };

  /// The attempt running on one container (job == kInvalidJob: idle).
  struct ContainerAttempt {
    JobId job = kInvalidJob;
    int task_index = -1;
    bool is_reduce = false;
    /// When the attempt was granted, and its place in the global launch
    /// order (speculation: straggler ratios and tie-breaks, kill order).
    Seconds granted_at = 0.0;
    std::uint64_t launch = 0;

    bool same_task(const ContainerAttempt& other) const {
      return job == other.job && task_index == other.task_index &&
             is_reduce == other.is_reduce;
    }
  };

  std::optional<JobId> handle_job_submitted(const EngineEvent& event);
  void handle_task_finished(const EngineEvent& event);
  void handle_container_freed(const EngineEvent& event);
  void dispatch();
  /// Starts the job's next pending task on the container.
  void launch_task(std::size_t job_index, std::size_t container_index,
                   EngineWave& wave);
  /// Starts an attempt of a specific task (first attempts and backups).
  void start_attempt(std::size_t job_index, int task_index, bool is_reduce,
                     std::size_t container_index, EngineWave& wave);
  /// Speculation: fills idle containers with backups of the worst
  /// stragglers; kills the running siblings of a task that just finished.
  void launch_speculative_backups(EngineWave& wave);
  void kill_siblings(EngineJob& job, const ContainerAttempt& winner);
  /// Number of running attempts of the same task as `attempt`.
  int running_attempts(const ContainerAttempt& attempt) const;
  EngineJob& job_for_container(int container, const char* context);
  void release_container(std::size_t container_index);
  void collect_predictions(std::vector<EnginePrediction>& out) const;

  void fill_job_view(const EngineJob& job, JobView& view) const;
  void mark_view_dirty(std::size_t job_index);
  void refresh_job_slot(std::size_t job_index);
  const ClusterView& current_view();
  ClusterView make_view() const;
  void rebuild_view();

  EngineConfig config_;
  Scheduler& scheduler_;
  ClusterObserver* observer_ = nullptr;
  EngineSink* sink_ = nullptr;
  EngineExecutor* executor_ = nullptr;

  Seconds now_ = 0.0;
  /// jobs_[id] — ids are dense per source but may *arrive* out of order
  /// under the virtual clock, so this is indexed by id with no holes ever
  /// observable to the scheduler (a slot exists from its submission event).
  std::vector<std::unique_ptr<EngineJob>> jobs_;
  /// LIFO free stack (init 0..capacity-1, pop_back on grant, push_back on
  /// release); the container indices in traces follow from it.
  std::vector<std::size_t> free_containers_;
  std::vector<ContainerAttempt> container_attempts_;  // indexed by container
  /// Launch sequence number of the next attempt.
  std::uint64_t next_launch_ = 0;

  ClusterView view_;
  std::vector<char> view_dirty_;
  std::vector<std::size_t> dirty_jobs_;
  long dispatchable_total_ = 0;
  bool dispatch_pending_ = false;
  int unfinished_ = 0;
  EngineStats stats_;
};

}  // namespace rush
