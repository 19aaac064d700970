// Ablation A5 — what actually breaks the baselines?
//
// The paper attributes FIFO/EDF's failures to head-of-line blocking ("EDF
// and FIFO only execute one job at a time").  This ablation runs each
// baseline in both its paper-faithful exclusive mode and a work-conserving
// variant that hands leftover containers to the next job, plus the Fair
// scheduler, quantifying how much of the gap to RUSH is the serial policy
// itself versus completion-time blindness.

#include <iostream>
#include <memory>

#include "src/baselines/edf_scheduler.h"
#include "src/baselines/fair_scheduler.h"
#include "src/baselines/fifo_scheduler.h"
#include "src/engine/simulation.h"
#include "src/experiments/experiment.h"
#include "src/metrics/report.h"
#include "src/metrics/text_table.h"
#include "src/stats/summary.h"
#include "src/workload/generator.h"

namespace rush {
namespace {

RunResult run_with(Scheduler& scheduler, double ratio, std::uint64_t seed) {
  // Mirror run_experiment but with an externally owned scheduler.
  const std::vector<Node> nodes = paper_testbed_nodes();
  ExperimentConfig defaults;
  WorkloadConfig workload;
  workload.num_jobs = defaults.num_jobs;
  workload.budget_ratio = ratio;
  workload.benchmark_capacity = 48;
  workload.benchmark_speed = budget_calibration(nodes, defaults.noise_sigma);
  workload.seed = seed;

  EngineSimulationConfig sim_config;
  sim_config.nodes = nodes;
  sim_config.runtime_noise_sigma = defaults.noise_sigma;
  sim_config.seed = seed + 1;

  EngineSimulation simulation(sim_config, scheduler);
  std::uint64_t bench_seed = seed + 1000003;
  for (JobSpec& spec : generate_workload(workload)) {
    const Seconds bench =
        measure_benchmark(spec, nodes, defaults.noise_sigma, bench_seed++);
    apply_sensitivity(spec, spec.sensitivity, ratio * bench, spec.priority);
    simulation.submit(std::move(spec));
  }
  return simulation.run();
}

void run_ablation() {
  std::cout << "=== Ablation A5: exclusive vs work-conserving baselines"
               " (budget ratio 1.5) ===\n\n";
  TextTable table(
      {"scheduler", "mean-util", "zero-util %", "budget-hit %", "median-lat"});
  const auto report = [&](const std::string& label, auto make) {
    double mean_util = 0.0, zero = 0.0, hit = 0.0;
    std::vector<double> lats;
    const int seeds = 3;
    for (std::uint64_t seed = 500; seed < 500 + static_cast<std::uint64_t>(seeds);
         ++seed) {
      auto scheduler = make();
      const auto result = run_with(*scheduler, 1.5, seed);
      double sum = 0.0;
      for (double u : achieved_utilities(result.jobs)) sum += u;
      mean_util += sum / static_cast<double>(result.jobs.size());
      zero += zero_utility_fraction(result.jobs);
      hit += budget_hit_fraction(result.jobs);
      for (double l : deadline_job_latencies(result.jobs)) lats.push_back(l);
    }
    const auto box = boxplot_stats(lats);
    table.add_row({label, TextTable::num(mean_util / seeds, 3),
                   TextTable::num(100.0 * zero / seeds, 1),
                   TextTable::num(100.0 * hit / seeds, 1),
                   TextTable::num(box.median, 0)});
  };

  report("FIFO (paper, serial)", [] { return std::make_unique<FifoScheduler>(true); });
  report("FIFO work-conserving", [] { return std::make_unique<FifoScheduler>(false); });
  report("EDF  (paper, serial)", [] { return std::make_unique<EdfScheduler>(true); });
  report("EDF  work-conserving", [] { return std::make_unique<EdfScheduler>(false); });
  report("Fair (weighted)", [] { return std::make_unique<FairScheduler>(); });
  report("RUSH", [] { return std::make_unique<RushScheduler>(); });
  table.print(std::cout);
}

}  // namespace
}  // namespace rush

int main() {
  rush::run_ablation();
  return 0;
}
