// Ablation A8 — speculative execution vs robust scheduling.
//
// Speculative execution (Zaharia et al., OSDI'08 — related work [2] of the
// paper) attacks runtime uncertainty *mechanically*, by duplicating
// straggler attempts; RUSH attacks it *statistically*, by planning against
// worst-case demand distributions.  This ablation runs the PUMA workload on
// a cluster with strongly heterogeneous nodes and compares RUSH and the
// baselines with speculation on/off: the two mechanisms are complementary,
// and speculation mostly rescues the schedulers that cannot re-plan.

#include <iostream>

#include "src/engine/simulation.h"
#include "src/experiments/experiment.h"
#include "src/metrics/report.h"
#include "src/metrics/text_table.h"
#include "src/workload/generator.h"

namespace rush {
namespace {

RunResult run_one(const std::string& scheduler_name, bool speculation,
                  std::uint64_t seed) {
  // Exaggerated heterogeneity: half the containers are 2.5x slower, the
  // regime where stragglers dominate completion times.
  const std::vector<Node> nodes = {{12, 1.0}, {12, 1.0}, {12, 2.5}, {12, 2.5}};
  ExperimentConfig defaults;
  defaults.num_jobs = 60;

  WorkloadConfig workload;
  workload.num_jobs = defaults.num_jobs;
  workload.budget_ratio = 1.5;
  workload.benchmark_capacity = 48;
  workload.benchmark_speed = budget_calibration(nodes, defaults.noise_sigma);
  workload.seed = seed;

  EngineSimulationConfig sim_config;
  sim_config.nodes = nodes;
  sim_config.runtime_noise_sigma = defaults.noise_sigma;
  sim_config.speculation.enabled = speculation;
  sim_config.speculation.threshold = 1.5;
  sim_config.seed = seed + 1;

  const auto scheduler = make_named_scheduler(scheduler_name);
  EngineSimulation simulation(sim_config, *scheduler);
  std::uint64_t bench_seed = seed + 1000003;
  for (JobSpec& spec : generate_workload(workload)) {
    const Seconds bench =
        measure_benchmark(spec, nodes, defaults.noise_sigma, bench_seed++);
    apply_sensitivity(spec, spec.sensitivity, 1.5 * bench, spec.priority);
    simulation.submit(std::move(spec));
  }
  return simulation.run();
}

void run_ablation() {
  std::cout << "=== Ablation A8: speculative execution on a straggler-heavy"
               " cluster (ratio 1.5) ===\n\n";
  TextTable table({"scheduler", "speculation", "mean-util", "budget-hit %",
                   "backups", "kills"});
  for (const std::string name : {"RUSH", "EDF", "Fair"}) {
    for (bool speculation : {false, true}) {
      double mean_util = 0.0, hit = 0.0;
      long backups = 0, kills = 0;
      const int seeds = 2;
      for (std::uint64_t seed = 900; seed < 900 + static_cast<std::uint64_t>(seeds);
           ++seed) {
        const auto result = run_one(name, speculation, seed);
        double sum = 0.0;
        for (double u : achieved_utilities(result.jobs)) sum += u;
        mean_util += sum / static_cast<double>(result.jobs.size());
        hit += budget_hit_fraction(result.jobs);
        backups += result.speculative_attempts;
        kills += result.speculative_kills;
      }
      table.add_row({name, speculation ? "on" : "off",
                     TextTable::num(mean_util / seeds, 3),
                     TextTable::num(100.0 * hit / seeds, 1),
                     std::to_string(backups / seeds), std::to_string(kills / seeds)});
    }
  }
  table.print(std::cout);
}

}  // namespace
}  // namespace rush

int main() {
  rush::run_ablation();
  return 0;
}
