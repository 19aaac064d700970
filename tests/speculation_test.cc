// Speculative execution (Hadoop-style backup attempts, related work [2] of
// the paper): stragglers get duplicated onto idle containers; the first
// attempt to finish wins and the losers are killed immediately.  The engine
// makes every backup and kill decision; the simulation drops the killed
// attempts' pending completions.

#include <gtest/gtest.h>

#include "src/baselines/fifo_scheduler.h"
#include "src/common/error.h"
#include "src/engine/engine.h"
#include "src/engine/event.h"
#include "src/engine/simulation.h"
#include "src/metrics/trace.h"

namespace rush {
namespace {

JobSpec simple_job(const std::string& name, int maps, Seconds task_seconds) {
  JobSpec spec;
  spec.name = name;
  spec.arrival = 0.0;
  spec.budget = 1e5;
  spec.utility_kind = "linear";
  spec.beta = 0.001;
  for (int m = 0; m < maps; ++m) spec.tasks.push_back({task_seconds, false});
  return spec;
}

EngineSimulationConfig spec_config(bool speculation, std::uint64_t seed = 3) {
  EngineSimulationConfig config;
  config.nodes = {{4, 1.0}, {2, 5.0}};  // two very slow containers
  config.runtime_noise_sigma = 0.15;
  config.speculation.enabled = speculation;
  config.speculation.threshold = 1.4;
  config.seed = seed;
  return config;
}

TEST(Speculation, BackupsRescueStragglersOnSlowNodes) {
  // 12 tasks on 6 containers: the two 3x-slower containers produce
  // stragglers; speculation should cut the makespan.
  const auto makespan_with = [](bool speculation) {
    FifoScheduler scheduler(false);
    EngineSimulation simulation(spec_config(speculation), scheduler);
    simulation.submit(simple_job("straggly", 12, 20.0));
    const auto result = simulation.run();
    EXPECT_TRUE(result.completed);
    return std::make_pair(result.makespan, result.speculative_attempts);
  };
  const auto [slow, no_backups] = makespan_with(false);
  const auto [fast, backups] = makespan_with(true);
  EXPECT_EQ(no_backups, 0);
  EXPECT_GT(backups, 0);
  EXPECT_LT(fast, slow);
}

TEST(Speculation, DisabledMeansNoBackups) {
  FifoScheduler scheduler(false);
  EngineSimulation simulation(spec_config(false), scheduler);
  simulation.submit(simple_job("plain", 20, 10.0));
  const auto result = simulation.run();
  EXPECT_EQ(result.speculative_attempts, 0);
  EXPECT_EQ(result.speculative_kills, 0);
}

TEST(Speculation, EachTaskCompletesExactlyOnce) {
  FifoScheduler scheduler(false);
  EngineSimulation simulation(spec_config(true, 7), scheduler);
  simulation.submit(simple_job("exact", 16, 15.0));
  simulation.submit(simple_job("other", 8, 15.0));
  const auto result = simulation.run();
  EXPECT_TRUE(result.completed);
  // Every backup launched either wins (killing the original) or is killed:
  // kills == attempts that lost.  Both jobs complete with the exact task
  // counts regardless.
  EXPECT_EQ(result.jobs[0].tasks, 16);
  EXPECT_EQ(result.jobs[1].tasks, 8);
  EXPECT_LE(result.speculative_kills, result.speculative_attempts + 0);
  EXPECT_GT(result.speculative_attempts, 0);
}

TEST(Speculation, RespectsMaxAttemptsPerTask) {
  FifoScheduler scheduler(false);
  EngineSimulationConfig config = spec_config(true, 9);
  config.speculation.max_attempts_per_task = 1;  // speculation effectively disabled
  EngineSimulation simulation(config, scheduler);
  simulation.submit(simple_job("capped", 12, 20.0));
  const auto result = simulation.run();
  EXPECT_EQ(result.speculative_attempts, 0);
}

TEST(Speculation, WorksTogetherWithFailures) {
  FifoScheduler scheduler(false);
  EngineSimulationConfig config = spec_config(true, 11);
  config.task_failure_probability = 0.2;
  EngineSimulation simulation(config, scheduler);
  simulation.submit(simple_job("chaos", 24, 12.0));
  const auto result = simulation.run();
  EXPECT_TRUE(result.completed);
  EXPECT_GT(result.task_failures, 0);
}

TEST(Speculation, DeterministicInSeed) {
  const auto run_once = [] {
    FifoScheduler scheduler(false);
    EngineSimulation simulation(spec_config(true, 13), scheduler);
    simulation.submit(simple_job("det", 15, 18.0));
    const auto result = simulation.run();
    return std::make_pair(result.makespan, result.speculative_attempts);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Speculation, ConfigValidation) {
  FifoScheduler scheduler(false);
  EngineSimulationConfig bad = spec_config(true);
  bad.speculation.max_attempts_per_task = 0;
  EXPECT_THROW(EngineSimulation(bad, scheduler), InvalidInput);
  bad = spec_config(true);
  bad.speculation.threshold = 0.0;
  EXPECT_THROW(EngineSimulation(bad, scheduler), InvalidInput);
  // The engine itself checks the settings, whatever source drives it.
  EngineConfig engine_bad{4, /*audit_view=*/true};
  engine_bad.speculation.max_attempts_per_task = 0;
  EXPECT_THROW(SchedulerEngine(engine_bad, scheduler), InvalidInput);
}

// ---------- engine-level speculation, driven by hand-written events ----------

/// Records the engine's grants and kills the way an executor sees them.
struct RecordingExecutor final : EngineExecutor {
  std::vector<EngineAssignment> grants;
  std::vector<int> killed;
  void on_assignment(Seconds /*now*/, const EngineAssignment& assignment) override {
    grants.push_back(assignment);
  }
  void on_kill(Seconds /*now*/, int container) override { killed.push_back(container); }
};

/// Job 0 (two 10 s maps) on 3 containers under exclusive FIFO: the maps go
/// to containers 2 and 1, the one on container 2 finishes at t=10, and job
/// 1's arrival at t=20 (FIFO idles it behind job 0) opens a wave in which
/// the map on container 1 — 20 s elapsed against a 10 s mean, ratio 2 >
/// 1.5 — gets a backup on the idle container 2.  With 4 containers and 3
/// attempts per task, the maps start on containers 3 and 2, container 2's
/// finishes, and the straggler on container 3 gets backups on containers 2
/// and 1, in that launch order.
struct StragglerScenario {
  FifoScheduler scheduler;
  RecordingExecutor executor;
  TraceRecorder trace;
  SchedulerEngine engine;

  explicit StragglerScenario(ContainerCount capacity = 3, int max_attempts = 2)
      : engine(config(capacity, max_attempts), scheduler) {
    engine.set_executor(&executor);
    engine.set_observer(&trace);
    JobConfig job;
    job.utility_kind = "linear";
    job.maps = 2;
    job.task_seconds = 10.0;
    engine.process(make_job_submitted(0.0, 0, job));
    engine.process(make_task_finished(10.0, 2, 10.0));
    job.maps = 1;
    engine.process(make_job_submitted(20.0, 1, job));
  }

  static EngineConfig config(ContainerCount capacity, int max_attempts) {
    EngineConfig config{capacity, /*audit_view=*/true};
    config.speculation.enabled = true;
    config.speculation.max_attempts_per_task = max_attempts;
    return config;
  }
};

TEST(EngineSpeculation, BackupGoesToTheStragglerOnAnIdleContainer) {
  StragglerScenario s;
  ASSERT_EQ(s.executor.grants.size(), 3u);
  const EngineAssignment& backup = s.executor.grants[2];
  EXPECT_EQ(backup.job, 0);
  EXPECT_EQ(backup.container, 2);
  EXPECT_EQ(backup.task_index, s.executor.grants[1].task_index);
  EXPECT_EQ(s.engine.stats().speculative_attempts, 1);
  EXPECT_EQ(s.engine.stats().assignments, 3);
}

TEST(EngineSpeculation, FirstFinishKillsSiblingsBeforeReportingTheFinish) {
  StragglerScenario s;
  s.engine.process(make_task_finished(22.0, 2, 2.0));  // the backup wins
  s.engine.flush();
  ASSERT_EQ(s.executor.killed, std::vector<int>{1});
  EXPECT_EQ(s.engine.stats().speculative_kills, 1);
  const std::vector<TraceEvent>& events = s.trace.events();
  ASSERT_GE(events.size(), 3u);
  const std::size_t n = events.size();
  // Job 1 may start after the wave; find the t=22 tail of job 0.
  std::size_t kill = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (events[i].kind == TraceKind::kTaskKilled) kill = i;
  }
  ASSERT_LT(kill + 2, n);
  EXPECT_EQ(events[kill].container, 1);
  EXPECT_EQ(events[kill + 1].kind, TraceKind::kTaskFinish);
  EXPECT_EQ(events[kill + 1].container, 2);
  EXPECT_EQ(events[kill + 2].kind, TraceKind::kJobFinish);
  EXPECT_EQ(s.engine.job_records()[0].completion, 22.0);
}

TEST(EngineSpeculation, SiblingsDieInLaunchOrder) {
  StragglerScenario s(/*capacity=*/4, /*max_attempts=*/3);
  ASSERT_EQ(s.executor.grants.size(), 4u);
  EXPECT_EQ(s.executor.grants[0].container, 3);  // the straggling original
  EXPECT_EQ(s.executor.grants[2].container, 2);  // first backup
  EXPECT_EQ(s.executor.grants[3].container, 1);  // second backup
  s.engine.process(make_task_finished(22.0, 2, 2.0));  // the first backup wins
  s.engine.flush();
  // Launch order (original, then second backup), not container order.
  EXPECT_EQ(s.executor.killed, (std::vector<int>{3, 1}));
  EXPECT_EQ(s.engine.stats().speculative_kills, 2);
}

TEST(EngineSpeculation, FailureWithARunningSiblingDoesNotRequeue) {
  StragglerScenario s;
  s.engine.process(make_container_freed(22.0, 1, 22.0));  // the original dies
  s.engine.process(make_task_finished(30.0, 2, 10.0));   // the backup finishes
  s.engine.flush();
  // Had the failure re-queued the map, the t=22 wave would have relaunched
  // it: job 0 would hold a fourth grant and finish later than t=30.
  int job0_grants = 0;
  for (const EngineAssignment& grant : s.executor.grants) {
    if (grant.job == 0) ++job0_grants;
  }
  EXPECT_EQ(job0_grants, 3);
  EXPECT_TRUE(s.executor.killed.empty());
  EXPECT_EQ(s.engine.stats().speculative_kills, 0);
  EXPECT_EQ(s.engine.stats().task_failures, 1);
  EXPECT_EQ(s.engine.job_records()[0].completion, 30.0);
}

}  // namespace
}  // namespace rush
