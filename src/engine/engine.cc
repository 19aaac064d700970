#include "src/engine/engine.h"

#include <algorithm>

#include "src/check/view_audit.h"
#include "src/core/rush_scheduler.h"

namespace rush {

int SchedulerEngine::EngineJob::dispatchable() const {
  if (finished) return 0;
  if (!pending_maps.empty()) return static_cast<int>(pending_maps.size());
  // Reduce barrier: reduces unlock only when every map has completed.
  if (maps_completed < maps_total) return 0;
  return static_cast<int>(pending_reduces.size());
}

SchedulerEngine::SchedulerEngine(EngineConfig config, Scheduler& scheduler)
    : config_(config), scheduler_(scheduler) {
  require(config_.capacity > 0, "SchedulerEngine: need at least one container");
  require(config_.speculation.max_attempts_per_task >= 1,
          "SchedulerEngine: need at least one attempt per task");
  require(config_.speculation.threshold > 0.0,
          "SchedulerEngine: speculation threshold must be positive");
  container_attempts_.assign(static_cast<std::size_t>(config_.capacity), ContainerAttempt{});
  for (std::size_t c = 0; c < static_cast<std::size_t>(config_.capacity); ++c) {
    free_containers_.push_back(c);
  }
  view_.capacity = config_.capacity;
}

std::optional<JobId> SchedulerEngine::process(const EngineEvent& event) {
  require(event.time >= now_,
          "SchedulerEngine::process: event time moves backwards");
  if (event.time > now_) {
    // A later timestamp ends the previous wave — the simulator's wave-end
    // hook restated without a clock (idempotent when the source already
    // flushed).
    flush();
    now_ = event.time;
  }
  // Write-ahead: the sink records the event before it is applied, so a
  // crash mid-apply leaves a log that replays into the same crash.
  if (sink_ != nullptr) sink_->on_event(event);
  switch (event.kind) {
    case EngineEvent::Kind::kJobSubmitted:
      return handle_job_submitted(event);
    case EngineEvent::Kind::kTaskFinished:
      handle_task_finished(event);
      return std::nullopt;
    case EngineEvent::Kind::kContainerFreed:
      handle_container_freed(event);
      return std::nullopt;
    case EngineEvent::Kind::kSnapshotRequested:
      // Snapshot consistency wants a wave boundary; the host persists the
      // state after process() returns.
      flush();
      return std::nullopt;
  }
  throw InvalidInput("SchedulerEngine::process: unknown event kind");
}

std::optional<JobId> SchedulerEngine::handle_job_submitted(const EngineEvent& event) {
  // A completion earlier in this timestamp batch may have its wave still
  // pending; it is served before the arrival, in event order.
  flush();
  const JobId id = event.job_id;
  require(id >= 0, "SchedulerEngine: job id must be non-negative");
  const auto slot = static_cast<std::size_t>(id);
  if (slot >= jobs_.size()) {
    jobs_.resize(slot + 1);
    view_dirty_.resize(slot + 1, 0);
    view_.id_to_index.resize(slot + 1, -1);
  }
  if (jobs_[slot] != nullptr) {
    throw InvalidInput("SchedulerEngine: duplicate submission of job " + std::to_string(id));
  }

  const JobConfig& config = event.job;
  config.validate();
  auto job = std::make_unique<EngineJob>();
  job->config = config;
  job->config.arrival = event.time;  // authoritative arrival = event time
  job->id = id;
  job->utility = make_utility(config.utility_kind, event.time + config.budget,
                              config.priority, config.beta);
  job->maps_total = config.maps;
  job->reduces_total = config.reduces;
  job->map_done.assign(static_cast<std::size_t>(config.maps), 0);
  job->reduce_done.assign(static_cast<std::size_t>(config.reduces), 0);
  for (int m = 0; m < config.maps; ++m) job->pending_maps.push_back(m);
  for (int r = 0; r < config.reduces; ++r) job->pending_reduces.push_back(r);
  jobs_[slot] = std::move(job);
  ++unfinished_;

  dispatchable_total_ += jobs_[slot]->dispatchable();
  mark_view_dirty(slot);
  ++stats_.scheduling_events;
  if (observer_ != nullptr) observer_->on_job_arrival(now_, id, config.name);
  scheduler_.on_job_arrival(current_view(), id);
  // Arrivals dispatch immediately.
  dispatch_pending_ = true;
  flush();
  return id;
}

SchedulerEngine::EngineJob& SchedulerEngine::job_for_container(int container,
                                                              const char* context) {
  require(container >= 0 && container < config_.capacity,
          std::string(context) + ": container index out of range");
  const ContainerAttempt& attempt = container_attempts_[static_cast<std::size_t>(container)];
  require(attempt.job != kInvalidJob,
          std::string(context) + ": container " + std::to_string(container) +
              " has no running attempt");
  return *jobs_[static_cast<std::size_t>(attempt.job)];
}

void SchedulerEngine::release_container(std::size_t container_index) {
  container_attempts_[container_index] = ContainerAttempt{};
  free_containers_.push_back(container_index);
}

void SchedulerEngine::handle_task_finished(const EngineEvent& event) {
  EngineJob& job = job_for_container(event.container, "SchedulerEngine[TaskFinished]");
  const ContainerAttempt attempt = container_attempts_[static_cast<std::size_t>(event.container)];
  require(event.runtime >= 0.0, "SchedulerEngine[TaskFinished]: negative runtime");
  release_container(static_cast<std::size_t>(event.container));
  --job.running;
  mark_view_dirty(static_cast<std::size_t>(job.id));

  // The first attempt to finish wins; its siblings are killed below, and
  // their pending completions never arrive, so a task finishes once.
  auto& done = attempt.is_reduce ? job.reduce_done : job.map_done;
  ensure(done[static_cast<std::size_t>(attempt.task_index)] == 0,
         "SchedulerEngine: task finished twice");
  const int dispatchable_before = job.dispatchable();
  done[static_cast<std::size_t>(attempt.task_index)] = 1;
  ++job.completed;
  if (!attempt.is_reduce) ++job.maps_completed;
  job.runtime_samples.push_back(event.runtime);
  job.sample_sum += event.runtime;
  ++stats_.scheduling_events;
  if (config_.speculation.enabled) kill_siblings(job, attempt);

  if (observer_ != nullptr) {
    observer_->on_task_finish(now_, job.id, event.container, event.runtime,
                              attempt.is_reduce);
  }

  const bool job_done = (job.completed == job.total_tasks());
  if (job_done) {
    job.finished = true;
    job.completion = now_;
    --unfinished_;
    if (observer_ != nullptr) {
      observer_->on_job_finish(now_, job.id, job.utility->value(job.completion));
    }
  }
  dispatchable_total_ += job.dispatchable() - dispatchable_before;

  const ClusterView& view = current_view();
  scheduler_.on_task_finished(view, job.id, event.runtime, attempt.is_reduce);
  if (job_done) scheduler_.on_job_finished(view, job.id);
  // Completions defer their wave to the end of the timestamp batch.
  dispatch_pending_ = true;
}

void SchedulerEngine::handle_container_freed(const EngineEvent& event) {
  EngineJob& job = job_for_container(event.container, "SchedulerEngine[ContainerFreed]");
  const ContainerAttempt attempt = container_attempts_[static_cast<std::size_t>(event.container)];
  require(event.wasted >= 0.0, "SchedulerEngine[ContainerFreed]: negative wasted time");
  release_container(static_cast<std::size_t>(event.container));
  --job.running;
  const int dispatchable_before = job.dispatchable();
  ++job.failures;
  ++stats_.task_failures;
  ++stats_.scheduling_events;

  // Re-queue the task unless a sibling attempt is still running it.  A
  // completed task has no running attempts left to fail.
  auto& done = attempt.is_reduce ? job.reduce_done : job.map_done;
  ensure(done[static_cast<std::size_t>(attempt.task_index)] == 0,
         "SchedulerEngine: failure reported for a completed task");
  if (!config_.speculation.enabled || running_attempts(attempt) == 0) {
    (attempt.is_reduce ? job.pending_reduces : job.pending_maps)
        .push_back(attempt.task_index);
  }
  dispatchable_total_ += job.dispatchable() - dispatchable_before;
  mark_view_dirty(static_cast<std::size_t>(job.id));

  if (observer_ != nullptr) {
    observer_->on_task_failure(now_, job.id, event.container, event.wasted);
  }
  scheduler_.on_task_failed(current_view(), job.id, event.wasted);
  dispatch_pending_ = true;
}

void SchedulerEngine::flush() {
  if (!dispatch_pending_) return;
  dispatch_pending_ = false;
  dispatch();
}

void SchedulerEngine::dispatch() {
  ++stats_.dispatch_waves;
  EngineWave wave;
  wave.now = now_;
  wave.index = stats_.dispatch_waves;
  wave.free_before = static_cast<ContainerCount>(free_containers_.size());

  // All free containers are offered in one batched call against the
  // incremental view; grants are applied in handout order.  No event can
  // intervene between the handouts of a wave (launches only schedule
  // strictly-future completions).
  while (!free_containers_.empty() && dispatchable_total_ > 0) {
    const int free_count = static_cast<int>(free_containers_.size());
    const std::vector<JobId> grants =
        scheduler_.assign_containers(current_view(), free_count);
    if (grants.empty()) break;  // scheduler deliberately idles the wave
    for (const JobId id : grants) {
      require(id >= 0 && static_cast<std::size_t>(id) < jobs_.size() &&
                  jobs_[static_cast<std::size_t>(id)] != nullptr,
              "Scheduler returned unknown job id");
      const auto job_index = static_cast<std::size_t>(id);
      require(jobs_[job_index]->dispatchable() > 0,
              "Scheduler chose a job with no dispatchable task");
      const std::size_t container_index = free_containers_.back();
      free_containers_.pop_back();
      launch_task(job_index, container_index, wave);
      ++stats_.assignments;
    }
    if (static_cast<int>(grants.size()) < free_count) break;  // rest left idle
  }
  if (config_.speculation.enabled) launch_speculative_backups(wave);

  wave.free_after = static_cast<ContainerCount>(free_containers_.size());
  collect_predictions(wave.predictions);
  if (sink_ != nullptr) sink_->on_wave(wave);
}

void SchedulerEngine::launch_task(std::size_t job_index, std::size_t container_index,
                                  EngineWave& wave) {
  EngineJob& job = *jobs_[job_index];
  const int dispatchable_before = job.dispatchable();
  int task_index = -1;
  bool is_reduce = false;
  if (!job.pending_maps.empty()) {
    task_index = job.pending_maps.front();
    job.pending_maps.erase(job.pending_maps.begin());
  } else {
    ensure(job.maps_completed == job.maps_total && !job.pending_reduces.empty(),
           "SchedulerEngine: launch on a job with nothing dispatchable");
    task_index = job.pending_reduces.front();
    job.pending_reduces.erase(job.pending_reduces.begin());
    is_reduce = true;
  }
  dispatchable_total_ += job.dispatchable() - dispatchable_before;
  start_attempt(job_index, task_index, is_reduce, container_index, wave);
}

void SchedulerEngine::start_attempt(std::size_t job_index, int task_index, bool is_reduce,
                                    std::size_t container_index, EngineWave& wave) {
  EngineJob& job = *jobs_[job_index];
  ++job.running;
  mark_view_dirty(job_index);
  container_attempts_[container_index] =
      ContainerAttempt{job.id, task_index, is_reduce, now_, next_launch_++};

  if (observer_ != nullptr) {
    observer_->on_task_start(now_, job.id, static_cast<int>(container_index), is_reduce);
  }
  EngineAssignment assignment;
  assignment.job = job.id;
  assignment.container = static_cast<int>(container_index);
  assignment.task_index = task_index;
  assignment.is_reduce = is_reduce;
  wave.assignments.push_back(assignment);
  if (executor_ != nullptr) executor_->on_assignment(now_, assignment);
}

int SchedulerEngine::running_attempts(const ContainerAttempt& attempt) const {
  int count = 0;
  for (const ContainerAttempt& other : container_attempts_) {
    if (other.same_task(attempt)) ++count;
  }
  return count;
}

void SchedulerEngine::kill_siblings(EngineJob& job, const ContainerAttempt& winner) {
  // Kills go in launch order, not container order: each one pushes a
  // container onto the free stack and emits a trace event.
  std::vector<std::size_t> siblings;
  for (std::size_t c = 0; c < container_attempts_.size(); ++c) {
    if (container_attempts_[c].same_task(winner)) siblings.push_back(c);
  }
  std::sort(siblings.begin(), siblings.end(), [this](std::size_t a, std::size_t b) {
    return container_attempts_[a].launch < container_attempts_[b].launch;
  });
  for (const std::size_t c : siblings) {
    release_container(c);
    --job.running;
    ++stats_.speculative_kills;
    if (observer_ != nullptr) observer_->on_task_killed(now_, job.id, static_cast<int>(c));
    if (executor_ != nullptr) executor_->on_kill(now_, static_cast<int>(c));
  }
}

void SchedulerEngine::launch_speculative_backups(EngineWave& wave) {
  const SpeculationConfig& speculation = config_.speculation;
  while (!free_containers_.empty()) {
    // The worst straggler: the running attempt with the largest elapsed /
    // mean-runtime ratio above the threshold whose task can take another
    // attempt.  Equal ratios go to the earliest launch.
    std::size_t straggler = container_attempts_.size();
    double worst_ratio = speculation.threshold;
    for (std::size_t c = 0; c < container_attempts_.size(); ++c) {
      const ContainerAttempt& attempt = container_attempts_[c];
      if (attempt.job == kInvalidJob) continue;
      const EngineJob& job = *jobs_[static_cast<std::size_t>(attempt.job)];
      if (job.runtime_samples.empty()) continue;  // nothing to compare against
      const double mean =
          job.sample_sum / static_cast<double>(job.runtime_samples.size());
      if (mean <= 0.0) continue;
      const double ratio = (now_ - attempt.granted_at) / mean;
      if (ratio < worst_ratio ||
          (ratio == worst_ratio &&
           (straggler == container_attempts_.size() ||
            attempt.launch > container_attempts_[straggler].launch))) {
        continue;
      }
      if (running_attempts(attempt) >= speculation.max_attempts_per_task) continue;
      worst_ratio = ratio;
      straggler = c;
    }
    if (straggler == container_attempts_.size()) return;

    const ContainerAttempt target = container_attempts_[straggler];
    const std::size_t container_index = free_containers_.back();
    free_containers_.pop_back();
    ++stats_.speculative_attempts;
    ++stats_.assignments;
    start_attempt(static_cast<std::size_t>(target.job), target.task_index,
                  target.is_reduce, container_index, wave);
  }
}

void SchedulerEngine::collect_predictions(std::vector<EnginePrediction>& out) const {
  const auto* rush = dynamic_cast<const RushScheduler*>(&scheduler_);
  if (rush == nullptr) return;
  const Plan& plan = rush->current_plan();
  out.reserve(plan.entries.size());
  for (const PlanEntry& entry : plan.entries) {
    EnginePrediction prediction;
    prediction.id = entry.id;
    prediction.eta = entry.eta;
    prediction.target_completion = entry.target_completion;
    prediction.utility_level = entry.utility_level;
    prediction.impossible = entry.impossible;
    prediction.desired_containers = entry.desired_containers;
    out.push_back(prediction);
  }
}

std::vector<JobRecord> SchedulerEngine::job_records() const {
  std::vector<JobRecord> records;
  records.reserve(jobs_.size());
  for (const auto& job : jobs_) {
    if (job == nullptr) continue;
    JobRecord record;
    record.id = job->id;
    record.name = job->config.name;
    record.arrival = job->config.arrival;
    record.budget = job->config.budget;
    record.priority = job->config.priority;
    record.sensitivity = job->config.sensitivity;
    record.completion = job->completion;
    record.tasks = job->total_tasks();
    record.best_possible_utility = job->utility->value(job->config.arrival);
    record.utility = job->finished ? job->utility->value(job->completion) : 0.0;
    records.push_back(std::move(record));
  }
  return records;
}

// ---------------------------------------------------------------------------
// Incremental view maintenance.

void SchedulerEngine::fill_job_view(const EngineJob& job, JobView& view) const {
  view.id = job.id;
  view.arrival = job.config.arrival;
  view.budget_deadline = job.config.arrival + job.config.budget;
  view.priority = job.config.priority;
  view.sensitivity = job.config.sensitivity;
  view.utility = job.utility.get();
  view.total_tasks = job.total_tasks();
  view.completed_tasks = job.completed;
  view.running_tasks = job.running;
  view.dispatchable_tasks = job.dispatchable();
  view.remaining_maps = job.maps_total - job.maps_completed;
  view.remaining_reduces = job.reduces_total - (job.completed - job.maps_completed);
  view.failed_attempts = job.failures;
  view.runtime_samples = &job.runtime_samples;
}

void SchedulerEngine::mark_view_dirty(std::size_t job_index) {
  if (view_dirty_[job_index] != 0) return;
  view_dirty_[job_index] = 1;
  dirty_jobs_.push_back(job_index);
}

void SchedulerEngine::refresh_job_slot(std::size_t job_index) {
  const EngineJob& job = *jobs_[job_index];
  std::vector<std::int32_t>& index = view_.id_to_index;
  std::int32_t slot = index[job_index];
  const bool member = !job.finished;
  if (!member) {
    if (slot >= 0) {
      view_.jobs.erase(view_.jobs.begin() + slot);
      index[job_index] = -1;
      for (std::size_t s = static_cast<std::size_t>(slot); s < view_.jobs.size(); ++s) {
        index[static_cast<std::size_t>(view_.jobs[s].id)] = static_cast<std::int32_t>(s);
      }
    }
    return;
  }
  if (slot < 0) {
    // Arrival order need not match id order; insert at the position that
    // keeps slots ascending by id.
    const auto pos_it =
        std::lower_bound(view_.jobs.begin(), view_.jobs.end(), job.id,
                         [](const JobView& v, JobId id) { return v.id < id; });
    const auto pos = static_cast<std::size_t>(pos_it - view_.jobs.begin());
    view_.jobs.insert(pos_it, JobView{});
    for (std::size_t s = pos + 1; s < view_.jobs.size(); ++s) {
      index[static_cast<std::size_t>(view_.jobs[s].id)] = static_cast<std::int32_t>(s);
    }
    index[job_index] = static_cast<std::int32_t>(pos);
    slot = static_cast<std::int32_t>(pos);
  }
  fill_job_view(job, view_.jobs[static_cast<std::size_t>(slot)]);
}

const ClusterView& SchedulerEngine::current_view() {
  view_.now = now_;
  view_.free_containers = static_cast<ContainerCount>(free_containers_.size());
  if (!dirty_jobs_.empty()) {
    ++stats_.view_updates;
    for (const std::size_t job_index : dirty_jobs_) {
      view_dirty_[job_index] = 0;
      refresh_job_slot(job_index);
    }
    dirty_jobs_.clear();
  }
  if (config_.audit_view) {
    long total = 0;
    for (const auto& job : jobs_) {
      if (job != nullptr) total += job->dispatchable();
    }
    ensure(total == dispatchable_total_,
           "SchedulerEngine: maintained dispatchable-task counter drifted");
    audit_cluster_view(view_, make_view()).throw_if_failed();
  }
  return view_;
}

ClusterView SchedulerEngine::make_view() const {
  ClusterView view;
  view.now = now_;
  view.capacity = config_.capacity;
  view.free_containers = static_cast<ContainerCount>(free_containers_.size());
  for (const auto& job : jobs_) {
    if (job == nullptr || job->finished) continue;
    JobView jv;
    fill_job_view(*job, jv);
    view.jobs.push_back(jv);
  }
  return view;
}

void SchedulerEngine::rebuild_view() {
  view_ = ClusterView{};
  view_.capacity = config_.capacity;
  view_.id_to_index.assign(jobs_.size(), -1);
  view_dirty_.assign(jobs_.size(), 0);
  dirty_jobs_.clear();
  dispatchable_total_ = 0;
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    if (jobs_[i] == nullptr) continue;
    dispatchable_total_ += jobs_[i]->dispatchable();
    if (jobs_[i]->finished) continue;
    view_.id_to_index[i] = static_cast<std::int32_t>(view_.jobs.size());
    view_.jobs.emplace_back();
    fill_job_view(*jobs_[i], view_.jobs.back());
  }
}

// ---------------------------------------------------------------------------
// Snapshot seam.

namespace {
constexpr std::uint8_t kEngineStateVersion = 2;
constexpr char kEngineSection[] = "engine";
constexpr char kSchedulerSection[] = "scheduler";
}  // namespace

void SchedulerEngine::save_state(Snapshot& snapshot) const {
  require(!dispatch_pending_,
          "SchedulerEngine::save_state: flush the wave before snapshotting");
  WireWriter out;
  out.put_u8(kEngineStateVersion);
  out.put_double(now_);
  out.put_i64(config_.capacity);

  out.put_u64(free_containers_.size());
  for (const std::size_t c : free_containers_) out.put_u32(static_cast<std::uint32_t>(c));
  for (const ContainerAttempt& attempt : container_attempts_) {
    out.put_i64(attempt.job);
    out.put_i64(attempt.task_index);
    out.put_bool(attempt.is_reduce);
    out.put_double(attempt.granted_at);
    out.put_u64(attempt.launch);
  }
  out.put_u64(next_launch_);

  out.put_u64(jobs_.size());
  for (const auto& job : jobs_) {
    out.put_bool(job != nullptr);
    if (job == nullptr) continue;
    serialize_job_config(job->config, out);
    out.put_i64(job->maps_completed);
    out.put_i64(job->completed);
    out.put_i64(job->running);
    out.put_i64(job->failures);
    out.put_bool(job->finished);
    out.put_double(job->completion);
    for (const char d : job->map_done) out.put_u8(static_cast<std::uint8_t>(d));
    for (const char d : job->reduce_done) out.put_u8(static_cast<std::uint8_t>(d));
    out.put_u64(job->pending_maps.size());
    for (const int t : job->pending_maps) out.put_i64(t);
    out.put_u64(job->pending_reduces.size());
    for (const int t : job->pending_reduces) out.put_i64(t);
    out.put_u64(job->runtime_samples.size());
    for (const Seconds s : job->runtime_samples) out.put_double(s);
  }

  out.put_i64(stats_.scheduling_events);
  out.put_i64(stats_.assignments);
  out.put_i64(stats_.task_failures);
  out.put_i64(stats_.dispatch_waves);
  out.put_i64(stats_.view_updates);
  out.put_i64(stats_.speculative_attempts);
  out.put_i64(stats_.speculative_kills);
  snapshot.set(kEngineSection, out.take());

  std::string scheduler_blob;
  scheduler_.save_state(scheduler_blob);
  snapshot.set(kSchedulerSection, std::move(scheduler_blob));
}

void SchedulerEngine::restore_state(const Snapshot& snapshot) {
  WireReader in(snapshot.get(kEngineSection));
  const std::uint8_t version = in.get_u8();
  require(version == kEngineStateVersion,
          "SchedulerEngine::restore_state: unsupported engine state version");
  now_ = in.get_double();
  const auto capacity = static_cast<ContainerCount>(in.get_i64());
  require(capacity == config_.capacity,
          "SchedulerEngine::restore_state: capacity mismatch");

  free_containers_.clear();
  const auto n_free = static_cast<std::size_t>(in.get_u64());
  for (std::size_t i = 0; i < n_free; ++i) {
    free_containers_.push_back(static_cast<std::size_t>(in.get_u32()));
  }
  container_attempts_.assign(static_cast<std::size_t>(config_.capacity), ContainerAttempt{});
  for (ContainerAttempt& attempt : container_attempts_) {
    attempt.job = in.get_i64();
    attempt.task_index = static_cast<int>(in.get_i64());
    attempt.is_reduce = in.get_bool();
    attempt.granted_at = in.get_double();
    attempt.launch = in.get_u64();
  }
  next_launch_ = in.get_u64();

  jobs_.clear();
  unfinished_ = 0;
  const auto n_jobs = static_cast<std::size_t>(in.get_u64());
  jobs_.reserve(n_jobs);
  for (std::size_t i = 0; i < n_jobs; ++i) {
    if (!in.get_bool()) {
      jobs_.push_back(nullptr);
      continue;
    }
    auto job = std::make_unique<EngineJob>();
    job->config = deserialize_job_config(in);
    job->id = static_cast<JobId>(i);
    job->utility = make_utility(job->config.utility_kind,
                                job->config.arrival + job->config.budget,
                                job->config.priority, job->config.beta);
    job->maps_total = job->config.maps;
    job->reduces_total = job->config.reduces;
    job->maps_completed = static_cast<int>(in.get_i64());
    job->completed = static_cast<int>(in.get_i64());
    job->running = static_cast<int>(in.get_i64());
    job->failures = static_cast<int>(in.get_i64());
    job->finished = in.get_bool();
    job->completion = in.get_double();
    job->map_done.assign(static_cast<std::size_t>(job->maps_total), 0);
    for (char& d : job->map_done) d = static_cast<char>(in.get_u8());
    job->reduce_done.assign(static_cast<std::size_t>(job->reduces_total), 0);
    for (char& d : job->reduce_done) d = static_cast<char>(in.get_u8());
    const auto n_pending_maps = static_cast<std::size_t>(in.get_u64());
    for (std::size_t t = 0; t < n_pending_maps; ++t) {
      job->pending_maps.push_back(static_cast<int>(in.get_i64()));
    }
    const auto n_pending_reduces = static_cast<std::size_t>(in.get_u64());
    for (std::size_t t = 0; t < n_pending_reduces; ++t) {
      job->pending_reduces.push_back(static_cast<int>(in.get_i64()));
    }
    const auto n_samples = static_cast<std::size_t>(in.get_u64());
    for (std::size_t s = 0; s < n_samples; ++s) {
      job->runtime_samples.push_back(in.get_double());
      job->sample_sum += job->runtime_samples.back();
    }
    if (!job->finished) ++unfinished_;
    jobs_.push_back(std::move(job));
  }

  stats_.scheduling_events = in.get_i64();
  stats_.assignments = in.get_i64();
  stats_.task_failures = in.get_i64();
  stats_.dispatch_waves = in.get_i64();
  stats_.view_updates = in.get_i64();
  stats_.speculative_attempts = in.get_i64();
  stats_.speculative_kills = in.get_i64();
  in.expect_end("SchedulerEngine::restore_state");

  scheduler_.restore_state(snapshot.get(kSchedulerSection));
  dispatch_pending_ = false;
  rebuild_view();
}

}  // namespace rush
