// Scheduler-side dispatch cost bench (DESIGN.md §5e, §5h).
//
// For each (scheduler, jobs, containers) point one synthetic backlog runs on
// EngineSimulation with the scheduler wrapped in a bench-local timing
// decorator: it accumulates the wall time of every scheduler call
// (assign_containers and the arrival / finish / failure notifications).
// Engine bookkeeping and launches are excluded.  The figure of merit is
// scheduler-side events/sec = scheduling_events / scheduler_seconds.
//
// RUSH points run with change-proportional planning on — replan elision
// plus layer replay (DESIGN.md §5h) at $RUSH_DISPATCH_ETA_TOL — and a second
// time with elision off (mode "replan").  The RUSH speedup is the
// events/sec ratio of the elision run over that always-replan baseline, and
// the columns plans_elided_per_wave / layers_replayed_per_pass show where it
// comes from.  Fair points are informational: a cheap per-handout rule, so
// their rate is the seam's own cost.
//
// Writes out/dispatch_overhead.csv and BENCH_dispatch.json (working
// directory; CI runs it from the repo root).
//
// Exit status: non-zero when the RUSH 200x48 elision speedup falls below
// $RUSH_DISPATCH_MIN_RUSH_SPEEDUP (default 1.5).  Scale knobs:
// $RUSH_DISPATCH_SEED (default 4242), $RUSH_DISPATCH_REPEATS (default 1,
// best-of), $RUSH_DISPATCH_ETA_TOL (default 0.15), $RUSH_BENCH_JSON.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/provenance.h"
#include "src/cluster/node.h"
#include "src/common/rng.h"
#include "src/core/rush_scheduler.h"
#include "src/engine/simulation.h"
#include "src/experiments/experiment.h"
#include "src/metrics/csv.h"
#include "src/metrics/text_table.h"

namespace rush {
namespace {

double env_or(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' ? std::atof(value) : fallback;
}

/// A contended backlog: arrivals spread over a window far shorter than the
/// total work, so most jobs stay active at once and every view the
/// scheduler reads is as wide as the job count.
std::vector<JobSpec> backlog_workload(int jobs, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<JobSpec> specs;
  for (int j = 0; j < jobs; ++j) {
    JobSpec spec;
    spec.name = "job" + std::to_string(j);
    spec.arrival = rng.uniform(0.0, 2.0 * jobs);
    spec.budget = rng.uniform(500.0, 4000.0);
    spec.priority = rng.uniform(0.5, 3.0);
    spec.beta = 1.0;
    spec.utility_kind = "sigmoid";
    const int maps = 10 + static_cast<int>(rng.uniform_int(0, 15));
    const int reduces = static_cast<int>(rng.uniform_int(0, 4));
    for (int m = 0; m < maps; ++m) {
      spec.tasks.push_back(TaskSpec{rng.uniform(20.0, 120.0), false});
    }
    for (int r = 0; r < reduces; ++r) {
      spec.tasks.push_back(TaskSpec{rng.uniform(20.0, 90.0), true});
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// Forwards every Scheduler call to the wrapped scheduler and accumulates
/// the wall time spent inside it.
class TimedScheduler final : public Scheduler {
 public:
  explicit TimedScheduler(Scheduler& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  std::vector<JobId> assign_containers(const ClusterView& view, int count) override {
    const auto start = Clock::now();
    std::vector<JobId> grants = inner_.assign_containers(view, count);
    seconds += elapsed(start);
    return grants;
  }
  void on_job_arrival(const ClusterView& view, JobId job) override {
    const auto start = Clock::now();
    inner_.on_job_arrival(view, job);
    seconds += elapsed(start);
  }
  void on_task_finished(const ClusterView& view, JobId job, Seconds runtime,
                        bool is_reduce) override {
    const auto start = Clock::now();
    inner_.on_task_finished(view, job, runtime, is_reduce);
    seconds += elapsed(start);
  }
  void on_task_failed(const ClusterView& view, JobId job, Seconds wasted) override {
    const auto start = Clock::now();
    inner_.on_task_failed(view, job, wasted);
    seconds += elapsed(start);
  }
  void on_job_finished(const ClusterView& view, JobId job) override {
    const auto start = Clock::now();
    inner_.on_job_finished(view, job);
    seconds += elapsed(start);
  }

  double seconds = 0.0;

 private:
  using Clock = std::chrono::steady_clock;
  static double elapsed(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
  }

  Scheduler& inner_;
};

struct Point {
  const char* scheduler;
  int jobs;
  int containers;
};

struct ModeResult {
  RunResult run;
  double scheduler_seconds = 0.0;
  double wall_ms = 0.0;
  long plans = 0;    // RUSH only: planning passes
  long elided = 0;   // RUSH only: waves served from the cached plan
  long replayed = 0; // RUSH only: peel layers replayed across passes
  double events_per_sec() const {
    return scheduler_seconds > 0.0 ? static_cast<double>(run.scheduling_events) / scheduler_seconds
                              : 0.0;
  }
};

/// RUSH tunables of the bench: the change-proportional planning pipeline
/// (DESIGN.md §5h) with warm-started peeling, an elision tolerance from
/// $RUSH_DISPATCH_ETA_TOL (relative eta drift, default 0.15), and the WCDE
/// cache on — the configuration whose dispatch cost the RUSH gate defends.
RushConfig bench_rush_config() {
  RushConfig config;
  config.warm_start_peeling = true;
  config.replan_elision = true;
  config.replan_eta_tolerance = env_or("RUSH_DISPATCH_ETA_TOL", 0.15);
  return config;
}

/// The pre-elision planner: warm-started peeling but a full WCDE+peel+map
/// pass on every dirty wave — the baseline the RUSH speedup gate measures
/// change-proportional planning against.
RushConfig replan_rush_config() {
  RushConfig config = bench_rush_config();
  config.replan_elision = false;
  config.replan_eta_tolerance = 0.0;
  return config;
}

ModeResult run_point(const Point& point, std::uint64_t seed, const RushConfig& rush_config) {
  EngineSimulationConfig config;
  config.nodes = homogeneous_nodes(point.containers / 8, 8);
  config.runtime_noise_sigma = 0.25;
  config.seed = seed + 17;
  config.audit_view = false;  // never measure the audits

  const auto scheduler = make_named_scheduler(point.scheduler, rush_config);
  TimedScheduler timed(*scheduler);
  EngineSimulation simulation(config, timed);
  for (JobSpec spec : backlog_workload(point.jobs, seed)) {
    simulation.submit(std::move(spec));
  }
  ModeResult mode;
  const auto start = std::chrono::steady_clock::now();
  mode.run = simulation.run();
  const auto stop = std::chrono::steady_clock::now();
  mode.wall_ms = std::chrono::duration<double, std::milli>(stop - start).count();
  mode.scheduler_seconds = timed.seconds;
  if (!mode.run.completed) {
    std::fprintf(stderr, "dispatch_overhead: %s %dx%d did not drain\n", point.scheduler,
                 point.jobs, point.containers);
    std::exit(2);
  }
  if (const auto* r = dynamic_cast<const RushScheduler*>(scheduler.get())) {
    const PlanStats stats = r->plan_stats();
    mode.plans = r->plans_computed();
    mode.elided = stats.plans_elided;
    mode.replayed = stats.layers_replayed;
  }
  return mode;
}

/// Best seam time over `repeats` runs (identical simulations; repeats only
/// damp timer noise on loaded hosts).
ModeResult best_of(const Point& point, std::uint64_t seed, int repeats,
                   const RushConfig& rush_config) {
  ModeResult best = run_point(point, seed, rush_config);
  for (int r = 1; r < repeats; ++r) {
    ModeResult next = run_point(point, seed, rush_config);
    if (next.scheduler_seconds < best.scheduler_seconds) best = std::move(next);
  }
  return best;
}

double per_wave(long count, const ModeResult& m) {
  return static_cast<double>(count) /
         std::max(1.0, static_cast<double>(m.run.dispatch_waves));
}

double replayed_per_pass(const ModeResult& m) {
  return m.plans > 0 ? static_cast<double>(m.replayed) / static_cast<double>(m.plans)
                     : 0.0;
}

}  // namespace
}  // namespace rush

int main() {
  using rush::ModeResult;
  using rush::Point;
  using rush::TextTable;

  const auto seed =
      static_cast<std::uint64_t>(rush::env_or("RUSH_DISPATCH_SEED", 4242.0));
  const int repeats =
      std::max(1, static_cast<int>(rush::env_or("RUSH_DISPATCH_REPEATS", 1.0)));
  const double min_rush_speedup =
      rush::env_or("RUSH_DISPATCH_MIN_RUSH_SPEEDUP", 1.5);

  const std::vector<Point> points = {{"Fair", 50, 16},
                                     {"Fair", 100, 48},
                                     {"Fair", 200, 48},
                                     {"RUSH", 50, 16},
                                     {"RUSH", 200, 48}};

  const std::string csv_path = rush::output_path("dispatch_overhead.csv");
  rush::CsvWriter csv(csv_path,
                      {"scheduler", "jobs", "containers", "mode", "events", "waves",
                       "view_updates", "plans_per_wave", "plans_elided_per_wave",
                       "layers_replayed_per_pass", "seam_ms", "events_per_sec",
                       "speedup", "run_wall_ms", "makespan_s"});
  TextTable table({"point", "mode", "events", "seam ms", "events/sec", "speedup"});

  double rush_speedup = 0.0;
  std::ostringstream json_points;
  for (const Point& point : points) {
    const bool is_rush = std::string(point.scheduler) == "RUSH";
    const ModeResult elide =
        rush::best_of(point, seed, repeats, rush::bench_rush_config());
    // RUSH only: the always-replan baseline.  A nonzero tolerance may steer
    // the simulation slightly, so the two runs compare as events/sec, not
    // as seam seconds.
    ModeResult replan;
    double speedup = 1.0;
    if (is_rush) {
      replan = rush::best_of(point, seed, repeats, rush::replan_rush_config());
      speedup = replan.events_per_sec() > 0.0
                    ? elide.events_per_sec() / replan.events_per_sec()
                    : 0.0;
    }
    const std::string label = std::string(point.scheduler) + " " +
                              std::to_string(point.jobs) + "x" +
                              std::to_string(point.containers);
    const auto emit = [&](const char* mode, const ModeResult& m, double su) {
      csv.add_row({point.scheduler, std::to_string(point.jobs),
                   std::to_string(point.containers), mode,
                   std::to_string(m.run.scheduling_events),
                   std::to_string(m.run.dispatch_waves),
                   std::to_string(m.run.view_updates),
                   TextTable::num(rush::per_wave(m.plans, m), 3),
                   TextTable::num(rush::per_wave(m.elided, m), 3),
                   TextTable::num(rush::replayed_per_pass(m), 3),
                   TextTable::num(m.scheduler_seconds * 1e3, 2),
                   TextTable::num(m.events_per_sec(), 0), TextTable::num(su, 2),
                   TextTable::num(m.wall_ms, 1), TextTable::num(m.run.makespan, 1)});
      table.add_row({label, mode, std::to_string(m.run.scheduling_events),
                     TextTable::num(m.scheduler_seconds * 1e3, 2),
                     TextTable::num(m.events_per_sec(), 0), TextTable::num(su, 2)});
    };
    if (is_rush) {
      emit("replan", replan, 1.0);
      emit("elide", elide, speedup);
    } else {
      emit("engine", elide, 1.0);
    }
    if (is_rush && point.jobs == 200 && point.containers == 48) rush_speedup = speedup;

    json_points << "  \"" << point.scheduler << "_" << point.jobs << "x"
                << point.containers << "\": {\n"
                << "    \"events\": " << elide.run.scheduling_events << ",\n"
                << "    \"seam_ms\": " << elide.scheduler_seconds * 1e3 << ",\n"
                << "    \"events_per_sec\": " << elide.events_per_sec() << ",\n"
                << "    \"view_updates\": " << elide.run.view_updates << ",\n"
                << "    \"plans_per_wave\": " << rush::per_wave(elide.plans, elide)
                << ",\n"
                << "    \"plans_elided_per_wave\": "
                << rush::per_wave(elide.elided, elide) << ",\n"
                << "    \"layers_replayed_per_pass\": " << rush::replayed_per_pass(elide);
    if (is_rush) {
      json_points << ",\n    \"replan_seam_ms\": " << replan.scheduler_seconds * 1e3
                  << ",\n    \"replan_events_per_sec\": " << replan.events_per_sec()
                  << ",\n    \"elision_speedup\": " << speedup;
    }
    json_points << "\n  },\n";
  }
  table.print(std::cout);
  std::printf("\nRUSH 200x48 elision speedup %.2fx (gate %.2fx)\n", rush_speedup,
              min_rush_speedup);
  std::printf("wrote %s\n", csv_path.c_str());

  const char* json_env = std::getenv("RUSH_BENCH_JSON");
  const std::string json_path =
      json_env != nullptr && *json_env != '\0' ? json_env : "BENCH_dispatch.json";
  {
    std::ofstream json(json_path, std::ios::trunc);
    json << "{\n"
         << "  \"bench\": \"dispatch_overhead\",\n"
         << rush_bench::provenance_json_fields() << "  \"seed\": " << seed << ",\n"
         << "  \"repeats\": " << repeats << ",\n"
         << "  \"eta_tolerance\": " << rush::env_or("RUSH_DISPATCH_ETA_TOL", 0.15)
         << ",\n"
         << json_points.str() << "  \"rush_speedup_200x48\": " << rush_speedup << ",\n"
         << "  \"min_rush_speedup_gate\": " << min_rush_speedup << "\n}\n";
  }
  std::printf("wrote %s\n", json_path.c_str());

  // Gate: change-proportional planning must beat the always-replan
  // baseline at the RUSH 200x48 point by the configured factor.
  if (min_rush_speedup > 0.0 && rush_speedup < min_rush_speedup) {
    std::fprintf(stderr,
                 "dispatch_overhead: FAIL — RUSH 200x48 elision speedup %.2fx "
                 "below required %.2fx\n",
                 rush_speedup, min_rush_speedup);
    return 1;
  }
  return 0;
}
