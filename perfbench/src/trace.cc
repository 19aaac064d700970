#include "perfbench/src/trace.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>

#include "src/baselines/fair_scheduler.h"
#include "src/core/rush_scheduler.h"
#include "src/daemon/protocol.h"
#include "src/engine/engine.h"
#include "src/engine/event_log.h"
#include "src/state/snapshot.h"

namespace perfbench {

namespace {

using rush::ClusterView;

/// Forwards every Scheduler call to the wrapped scheduler and times the
/// ones the per-layer table names.
class TimedScheduler final : public rush::Scheduler {
 public:
  explicit TimedScheduler(rush::Scheduler& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }

  std::optional<JobId> assign_container(const ClusterView& view) override {
    const Clock::time_point start = Clock::now();
    const std::optional<JobId> job = inner_.assign_container(view);
    note(start, &assign);
    return job;
  }

  std::vector<JobId> assign_containers(const ClusterView& view, int count) override {
    const Clock::time_point start = Clock::now();
    std::vector<JobId> grants = inner_.assign_containers(view, count);
    note(start, &assign);
    return grants;
  }

  void on_job_arrival(const ClusterView& view, JobId job) override {
    const Clock::time_point start = Clock::now();
    inner_.on_job_arrival(view, job);
    note(start, &arrival);
  }

  void on_task_finished(const ClusterView& view, JobId job, Seconds runtime,
                        bool is_reduce) override {
    const Clock::time_point start = Clock::now();
    inner_.on_task_finished(view, job, runtime, is_reduce);
    note(start, &task_finished);
  }

  void on_task_failed(const ClusterView& view, JobId job, Seconds wasted) override {
    const Clock::time_point start = Clock::now();
    inner_.on_task_failed(view, job, wasted);
    note(start, nullptr);
  }

  void on_job_finished(const ClusterView& view, JobId job) override {
    const Clock::time_point start = Clock::now();
    inner_.on_job_finished(view, job);
    note(start, nullptr);
  }

  void save_state(std::string& blob) const override { inner_.save_state(blob); }
  void restore_state(const std::string& blob) override { inner_.restore_state(blob); }

  /// Samples are taken only while recording; busy time always accrues.
  bool recording = false;
  double busy_us = 0.0;
  Samples assign;
  Samples arrival;
  Samples task_finished;

 private:
  void note(Clock::time_point start, Samples* samples) {
    const double us = micros_between(start, Clock::now());
    busy_us += us;
    if (recording && samples != nullptr) samples->add(us);
  }

  rush::Scheduler& inner_;
};

/// Appends the replay's WAL and digests every wave as a rushd wave frame.
/// With a `plan_source`, wave predictions are rebuilt from its plan (the
/// engine cannot see a RushScheduler behind the decorator).
class ReplaySink final : public rush::EngineSink {
 public:
  ReplaySink(const std::string& wal_path, const rush::RushScheduler* plan_source)
      : log_(wal_path), plan_source_(plan_source) {}

  void on_event(const rush::EngineEvent& event) override {
    const Clock::time_point start = Clock::now();
    log_.append(event);
    last_append_us = micros_between(start, Clock::now());
    busy_us += last_append_us;
  }

  void on_wave(const rush::EngineWave& wave) override {
    const Clock::time_point start = Clock::now();
    rush::ServerMessage message;
    message.kind = rush::ServerMessage::Kind::kWave;
    message.time = wave.now;
    message.wave = wave;
    if (plan_source_ != nullptr) {
      // SchedulerEngine::collect_predictions, field for field.
      for (const rush::PlanEntry& entry : plan_source_->current_plan().entries) {
        rush::EnginePrediction prediction;
        prediction.id = entry.id;
        prediction.eta = entry.eta;
        prediction.target_completion = entry.target_completion;
        prediction.utility_level = entry.utility_level;
        prediction.impossible = entry.impossible;
        prediction.desired_containers = entry.desired_containers;
        message.wave.predictions.push_back(prediction);
      }
    }
    digest.add(rush::encode_frame(message));
    ++waves;
    busy_us += micros_between(start, Clock::now());
  }

  Digest digest;
  long waves = 0;
  double busy_us = 0.0;
  double last_append_us = 0.0;

 private:
  rush::EventLogWriter log_;
  const rush::RushScheduler* plan_source_;
};

std::unique_ptr<rush::Scheduler> make_scheduler(SchedulerKind kind) {
  if (kind == SchedulerKind::kRush) return std::make_unique<rush::RushScheduler>();
  return std::make_unique<rush::FairScheduler>();
}

bool is_marker(const rush::EngineEvent& event) {
  return event.kind == rush::EngineEvent::Kind::kSnapshotRequested;
}

/// What rushd does on a snapshot request once the engine has flushed.
std::size_t take_snapshot(const rush::SchedulerEngine& engine, const std::string& path) {
  rush::Snapshot snapshot;
  engine.save_state(snapshot);
  return snapshot.write_file(path);
}

}  // namespace

ReplayResult replay_wal(const std::vector<rush::EngineEvent>& events, SchedulerKind kind,
                        std::size_t window_begin, std::size_t window_end,
                        const std::string& dir) {
  ReplayResult out;
  const std::string wal_path = dir + "/replay.wal";
  const std::string snapshot_path = dir + "/replay.snapshot";
  const rush::EngineConfig engine_config{kCapacity, /*audit_view=*/false};
  const bool has_marker = std::any_of(events.begin(), events.end(), is_marker);

  {
    const std::unique_ptr<rush::Scheduler> scheduler = make_scheduler(kind);
    rush::SchedulerEngine engine(engine_config, *scheduler);
    ReplaySink sink(wal_path, nullptr);
    engine.set_sink(&sink);
    const Clock::time_point start = Clock::now();
    for (const rush::EngineEvent& event : events) {
      engine.process(event);
      if (is_marker(event)) take_snapshot(engine, snapshot_path);
    }
    engine.flush();
    if (!has_marker) take_snapshot(engine, snapshot_path);
    out.untraced_seconds = seconds_between(start, Clock::now());
    out.untraced_digest = sink.digest.hex();
    out.untraced_waves = sink.waves;
  }

  const std::unique_ptr<rush::Scheduler> scheduler = make_scheduler(kind);
  const auto* rush_scheduler = dynamic_cast<const rush::RushScheduler*>(scheduler.get());
  TimedScheduler timed(*scheduler);
  rush::SchedulerEngine engine(engine_config, timed);
  ReplaySink sink(wal_path, rush_scheduler);
  engine.set_sink(&sink);

  const auto timed_snapshot = [&] {
    const Clock::time_point start = Clock::now();
    out.last_snapshot_bytes = take_snapshot(engine, snapshot_path);
    out.snapshot_us.add(micros_between(start, Clock::now()));
  };

  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const bool in_window = i >= window_begin && i < window_end;
    timed.recording = in_window;
    timed.busy_us = 0.0;
    sink.busy_us = 0.0;
    const rush::PlanStats plan_before =
        rush_scheduler != nullptr ? rush_scheduler->plan_stats() : rush::PlanStats{};
    const rush::EngineStats engine_before = engine.stats();

    const Clock::time_point process_start = Clock::now();
    engine.process(events[i]);
    const double process_us = micros_between(process_start, Clock::now());
    if (is_marker(events[i])) timed_snapshot();
    if (!in_window) continue;

    ++out.window_events;
    out.process_us.add(process_us);
    out.self_us.add(process_us - timed.busy_us - sink.busy_us);
    out.append_us.add(sink.last_append_us);
    out.scheduler_us += timed.busy_us;
    const rush::EngineStats& engine_after = engine.stats();
    out.waves += engine_after.dispatch_waves - engine_before.dispatch_waves;
    out.view_updates += engine_after.view_updates - engine_before.view_updates;
    out.grants += engine_after.assignments - engine_before.assignments;
    if (rush_scheduler == nullptr) continue;

    const rush::PlanStats plan_after = rush_scheduler->plan_stats();
    const long passes = plan_after.passes - plan_before.passes;
    out.passes += passes;
    out.elided += plan_after.plans_elided - plan_before.plans_elided;
    out.cache_hits += plan_after.wcde_cache_hits - plan_before.wcde_cache_hits;
    out.cache_misses += plan_after.wcde_cache_misses - plan_before.wcde_cache_misses;
    if (passes == 0) continue;
    const auto per_pass = [passes](double after, double before) {
      return (after - before) / static_cast<double>(passes);
    };
    out.wcde_us_per_pass.add(per_pass(plan_after.wcde_us, plan_before.wcde_us));
    out.peel_us_per_pass.add(per_pass(plan_after.peel_us, plan_before.peel_us));
    out.map_us_per_pass.add(per_pass(plan_after.map_us, plan_before.map_us));
    out.probes_per_pass.add(per_pass(static_cast<double>(plan_after.peel_probes),
                                     static_cast<double>(plan_before.peel_probes)));
    out.layers_replayed_per_pass.add(
        per_pass(static_cast<double>(plan_after.layers_replayed),
                 static_cast<double>(plan_before.layers_replayed)));
    out.batch_rows_per_pass.add(per_pass(static_cast<double>(plan_after.wcde_batch_rows),
                                         static_cast<double>(plan_before.wcde_batch_rows)));
  }
  engine.flush();
  if (!has_marker) timed_snapshot();
  out.traced_seconds = seconds_between(start, Clock::now());
  out.traced_digest = sink.digest.hex();
  out.traced_waves = sink.waves;
  out.records = engine.job_records();
  out.assign_us = timed.assign;
  out.arrival_us = timed.arrival;
  out.task_finished_us = timed.task_finished;
  out.wal_bytes_per_event =
      events.empty() ? 0.0
                     : static_cast<double>(std::filesystem::file_size(wal_path)) /
                           static_cast<double>(events.size());
  std::remove(wal_path.c_str());
  std::remove(snapshot_path.c_str());
  return out;
}

}  // namespace perfbench

namespace perfbench {

void report_layers(Report& report, const SessionResult* session, const ReplayResult& replay,
                   SchedulerKind kind, std::size_t recovered_events) {
  const Samples none;
  const bool rush = kind == SchedulerKind::kRush;
  const auto ratio = [](double numerator, double denominator) {
    return denominator > 0.0 ? numerator / denominator : 0.0;
  };
  const auto spread = [&report](const std::string& name, const Samples& samples,
                                bool with_p99) {
    report.metric(name + ".p50", samples.quantile(0.5), "us", samples.size());
    if (with_p99) report.metric(name + ".p99", samples.quantile(0.99), "us", samples.size());
  };
  const auto per_pass = [&report](const std::string& name, const Samples& samples,
                                  const std::string& unit) {
    report.metric(name, samples.quantile(0.5), unit, samples.size());
  };
  const auto events = static_cast<std::size_t>(replay.window_events);
  const auto waves = static_cast<double>(replay.waves);

  // daemon/protocol and daemon: spans of the traced session.
  const Samples& decode = session != nullptr ? session->decode_us : none;
  const Samples& encode = session != nullptr ? session->encode_us : none;
  const Samples& handle = session != nullptr ? session->handle_us : none;
  const Samples& bytes = session != nullptr ? session->response_bytes : none;
  const Samples& predictions = session != nullptr ? session->predictions_per_wave : none;
  spread("protocol.decode_us", decode, true);
  spread("protocol.encode_us", encode, true);
  report.metric("protocol.response_bytes_per_event", bytes.mean(), "bytes", bytes.size());
  report.metric("protocol.predictions_per_wave", predictions.mean(), "count",
                predictions.size());
  spread("daemon.handle_us", handle, true);

  // engine/event_log and engine: the traced replay.
  spread("event_log.append_us", replay.append_us, true);
  report.metric("event_log.bytes_per_event", replay.wal_bytes_per_event, "bytes", events);
  spread("engine.process_us", replay.process_us, true);
  spread("engine.self_us", replay.self_us, false);
  report.metric("engine.waves_per_event", ratio(waves, events), "count", events);
  report.metric("engine.view_updates_per_event",
                ratio(static_cast<double>(replay.view_updates), events), "count", events);
  report.metric("engine.grants_per_wave", ratio(static_cast<double>(replay.grants), waves),
                "count", replay.waves);

  // core / estimator / robust / tas: RUSH behind the decorator; all zero
  // passes when the workload runs a baseline.
  spread("core.assign_us", rush ? replay.assign_us : none, true);
  spread("core.arrival_us", rush ? replay.arrival_us : none, false);
  report.metric("core.plans_per_wave", ratio(static_cast<double>(replay.passes), waves),
                "count", replay.waves);
  report.metric("core.plans_elided_per_wave",
                ratio(static_cast<double>(replay.elided), waves), "count", replay.waves);
  // Scheduler time per replayed event over daemon.handle time per session
  // event: how much of handle the planner path accounts for.
  report.metric("core.share_of_handle",
                rush ? ratio(ratio(replay.scheduler_us, events), handle.mean()) : 0.0,
                "frac", events);
  spread("estimator.task_finished_us", rush ? replay.task_finished_us : none, false);
  per_pass("robust.wcde_us_per_pass", replay.wcde_us_per_pass, "us");
  report.metric("robust.wcde_cache_hit_rate",
                ratio(static_cast<double>(replay.cache_hits),
                      static_cast<double>(replay.cache_hits + replay.cache_misses)),
                "frac", static_cast<std::size_t>(replay.cache_hits + replay.cache_misses));
  per_pass("robust.wcde_batch_rows_per_pass", replay.batch_rows_per_pass, "count");
  per_pass("tas.peel_us_per_pass", replay.peel_us_per_pass, "us");
  per_pass("tas.peel_probes_per_pass", replay.probes_per_pass, "count");
  per_pass("tas.layers_replayed_per_pass", replay.layers_replayed_per_pass, "count");
  per_pass("tas.map_us_per_pass", replay.map_us_per_pass, "us");

  // state: snapshots taken during the replay, and the session's recovery.
  spread("state.snapshot_us", replay.snapshot_us, true);
  report.metric("state.snapshot_bytes.last", static_cast<double>(replay.last_snapshot_bytes),
                "bytes", replay.snapshot_us.size());
  report.metric("state.recover_events_replayed", static_cast<double>(recovered_events),
                "count", 1);

  // baselines: the decorator around Fair.
  spread("baselines.assign_us", rush ? none : replay.assign_us, true);

  report.metric("trace.overhead_frac",
                ratio(replay.traced_seconds - replay.untraced_seconds, replay.untraced_seconds),
                "frac", events);
}

}  // namespace perfbench
