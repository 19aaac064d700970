// simulate — the command-line front end to the whole library.
//
//   build/examples/simulate [options]
//     --scheduler NAME     RUSH | EDF | FIFO | RRH | Fair        (RUSH)
//     --jobs N             workload size                         (60)
//     --ratio R            budget = R x measured benchmark       (1.5)
//     --seed S             workload + cluster seed               (1)
//     --theta T            RUSH percentile requirement           (0.9)
//     --delta D            RUSH entropy threshold                (0.7)
//     --phase-aware        per-phase demand estimation           (off)
//     --failure-p P        task attempt failure probability      (0)
//     --speculation        enable backup attempts                (off)
//     --save-workload F    write the generated workload XML to F
//     --load-workload F    run a previously saved workload instead
//     --trace F            write the execution trace CSV to F
//     --event-log F        record the engine event log (WAL format) to F
//
// Runs on the event-driven SchedulerEngine via EngineSimulation (DESIGN.md
// §5j); the recorded event log replays through replay_events to the same
// trace, speculative backups and kills included — provided the replaying
// engine has the same capacity, scheduler and speculation settings.
//
// Examples:
//   simulate --scheduler FIFO --ratio 1.0 --jobs 100
//   simulate --save-workload w.xml
//   simulate --load-workload w.xml --scheduler EDF --trace edf.csv
//   simulate --jobs 20 --event-log run.evlog

#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "src/engine/event_log.h"
#include "src/engine/simulation.h"
#include "src/experiments/experiment.h"
#include "src/metrics/report.h"
#include "src/metrics/text_table.h"
#include "src/metrics/trace.h"
#include "src/stats/summary.h"
#include "src/workload/generator.h"
#include "src/workload/workload_io.h"

using namespace rush;

namespace {

struct Options {
  std::string scheduler = "RUSH";
  int jobs = 60;
  double ratio = 1.5;
  std::uint64_t seed = 1;
  double theta = 0.9;
  double delta = 0.7;
  bool phase_aware = false;
  double failure_p = 0.0;
  bool speculation = false;
  std::optional<std::string> save_workload;
  std::optional<std::string> load_workload;
  std::optional<std::string> trace_path;
  std::optional<std::string> event_log_path;
};

Options parse_options(int argc, char** argv) {
  Options opt;
  const auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << argv[i] << '\n';
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--scheduler") {
      opt.scheduler = need_value(i);
    } else if (flag == "--jobs") {
      opt.jobs = std::atoi(need_value(i).c_str());
    } else if (flag == "--ratio") {
      opt.ratio = std::atof(need_value(i).c_str());
    } else if (flag == "--seed") {
      opt.seed = static_cast<std::uint64_t>(std::atoll(need_value(i).c_str()));
    } else if (flag == "--theta") {
      opt.theta = std::atof(need_value(i).c_str());
    } else if (flag == "--delta") {
      opt.delta = std::atof(need_value(i).c_str());
    } else if (flag == "--phase-aware") {
      opt.phase_aware = true;
    } else if (flag == "--failure-p") {
      opt.failure_p = std::atof(need_value(i).c_str());
    } else if (flag == "--speculation") {
      opt.speculation = true;
    } else if (flag == "--save-workload") {
      opt.save_workload = need_value(i);
    } else if (flag == "--load-workload") {
      opt.load_workload = need_value(i);
    } else if (flag == "--trace") {
      opt.trace_path = need_value(i);
    } else if (flag == "--event-log") {
      opt.event_log_path = need_value(i);
    } else {
      std::cerr << "unknown option " << flag << " (see file header for usage)\n";
      std::exit(2);
    }
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);

  const std::vector<Node> nodes = paper_testbed_nodes();
  const double noise_sigma = 0.25;

  // Assemble the workload: generated (and optionally archived) or loaded.
  std::vector<JobSpec> specs;
  if (opt.load_workload) {
    specs = load_workload(*opt.load_workload);
    std::cout << "loaded " << specs.size() << " jobs from " << *opt.load_workload
              << '\n';
  } else {
    WorkloadConfig workload;
    workload.num_jobs = opt.jobs;
    workload.budget_ratio = opt.ratio;
    workload.benchmark_capacity = 48;
    workload.benchmark_speed = budget_calibration(nodes, noise_sigma);
    workload.seed = opt.seed;
    specs = generate_workload(workload);
    std::uint64_t bench_seed = opt.seed + 1000003;
    for (JobSpec& spec : specs) {
      const Seconds bench = measure_benchmark(spec, nodes, noise_sigma, bench_seed++);
      apply_sensitivity(spec, spec.sensitivity, opt.ratio * bench, spec.priority);
    }
    if (opt.save_workload) {
      save_workload(specs, *opt.save_workload);
      std::cout << "saved workload to " << *opt.save_workload << '\n';
    }
  }

  RushConfig rush_config;
  rush_config.theta = opt.theta;
  rush_config.delta = opt.delta;
  rush_config.phase_aware_estimation = opt.phase_aware;
  const auto scheduler = make_named_scheduler(opt.scheduler, rush_config);

  EngineSimulationConfig sim_config;
  sim_config.nodes = nodes;
  sim_config.runtime_noise_sigma = noise_sigma;
  sim_config.task_failure_probability = opt.failure_p;
  sim_config.speculation.enabled = opt.speculation;
  sim_config.seed = opt.seed + 1;
  EngineSimulation simulation(sim_config, *scheduler);
  TraceRecorder trace;
  if (opt.trace_path) simulation.set_observer(&trace);
  struct LogSink final : EngineSink {
    explicit LogSink(const std::string& path) : log(path) {}
    void on_event(const EngineEvent& event) override { log.append(event); }
    EventLogWriter log;
  };
  std::optional<LogSink> event_log;
  if (opt.event_log_path) {
    event_log.emplace(*opt.event_log_path);
    simulation.set_sink(&*event_log);
  }
  for (JobSpec& spec : specs) simulation.submit(std::move(spec));
  const RunResult result = simulation.run();
  if (event_log) {
    std::cout << "event log (" << event_log->log.records_written() << " events) -> "
              << *opt.event_log_path << '\n';
  }

  if (opt.trace_path) {
    trace.write_csv(*opt.trace_path);
    std::cout << "trace (" << trace.events().size() << " events) -> "
              << *opt.trace_path << '\n';
  }

  double mean_util = 0.0;
  for (double u : achieved_utilities(result.jobs)) mean_util += u;
  mean_util /= static_cast<double>(result.jobs.size());
  const auto lat = deadline_job_latencies(result.jobs);

  std::cout << '\n' << opt.scheduler << " on " << result.jobs.size()
            << " jobs (ratio " << opt.ratio << ", seed " << opt.seed << ")\n";
  TextTable table({"metric", "value"});
  table.add_row({"completed", result.completed ? "all" : "TIMED OUT"});
  table.add_row({"mean utility", TextTable::num(mean_util, 3)});
  table.add_row(
      {"zero-utility %", TextTable::num(100.0 * zero_utility_fraction(result.jobs), 1)});
  table.add_row(
      {"budget hit %", TextTable::num(100.0 * budget_hit_fraction(result.jobs), 1)});
  if (!lat.empty()) {
    const auto box = boxplot_stats(lat);
    table.add_row({"latency median / Q3",
                   TextTable::num(box.median, 0) + " / " + TextTable::num(box.q3, 0)});
  }
  table.add_row({"makespan", TextTable::num(result.makespan, 0) + " s"});
  table.add_row({"assignments", std::to_string(result.assignments)});
  table.add_row({"task failures", std::to_string(result.task_failures)});
  table.add_row({"speculative attempts", std::to_string(result.speculative_attempts)});
  table.print(std::cout);
  return result.completed ? 0 : 1;
}
