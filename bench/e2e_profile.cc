// End-to-end plan profiler — the Fig 5 overhead story as one reproducible
// number series, and the warm-start replanning win measured in the setting
// that motivates it: a full Experiment, where nearly every task-completion
// event dirties the plan and the scheduler replans from scratch.
//
// Three identical experiments run back to back: cold (warm_start_peeling
// off, the bit-exact reference path), warm (the default: each onion-peel
// layer seeded by the previous pass's level), and warm-scalar (warm with the
// WCDE cache, identity memo and batched kernel off, so every pass solves
// every job's WCDE with the scalar solver).  The per-stage PlanStats profiler
// (WCDE / peel / mapping microseconds, peel probes, warm-layer and WCDE
// cache counters) is reduced to per-pass figures and written to
// out/e2e_profile.csv plus BENCH_e2e.json — the first point of the repo's
// perf trajectory.  Peel probe counts are hardware-independent, so the
// warm/cold probe ratio is comparable across machines; the microsecond
// columns are not.
//
// Exit status: non-zero when warm-start probes per pass exceed cold probes
// per pass (the warm path must never do more search work), when the ratio
// falls below $RUSH_E2E_MIN_PROBE_RATIO, or when the warm-scalar / warm WCDE
// microseconds per pass fall below $RUSH_E2E_MIN_WCDE_SPEEDUP (gates unset
// = off).  Both gates are ratios within one run, so they hold across hosts.
// Scale knobs: $RUSH_E2E_JOBS (default 32), $RUSH_E2E_SEED (default 4242),
// $RUSH_BENCH_JSON (default BENCH_e2e.json in the working directory).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "bench/provenance.h"
#include "src/experiments/experiment.h"
#include "src/metrics/csv.h"
#include "src/metrics/report.h"
#include "src/metrics/text_table.h"

namespace rush {
namespace {

struct ModeResult {
  RunResult run;
  PlanOverheadSummary overhead;
  double wall_ms = 0.0;
  double mean_utility = 0.0;
};

/// `scalar_wcde` turns off the WCDE cache (and with it the identity memo)
/// and the batched kernel: the per-pass WCDE reference the production stage
/// is measured against.
ModeResult run_mode(bool warm, bool scalar_wcde, int jobs, std::uint64_t seed) {
  ExperimentConfig config;
  config.num_jobs = jobs;
  config.mean_interarrival = 90.0;
  config.min_gigabytes = 0.5;
  config.max_gigabytes = 4.0;
  config.budget_ratio = 1.5;
  config.noise_sigma = 0.25;
  config.seed = seed;
  config.nodes = homogeneous_nodes(2, 6);  // 12 containers
  config.rush.warm_start_peeling = warm;
  config.rush.wcde_cache = !scalar_wcde;
  config.rush.wcde_batch = !scalar_wcde;

  ModeResult mode;
  const auto start = std::chrono::steady_clock::now();
  mode.run = run_experiment("RUSH", config);
  const auto stop = std::chrono::steady_clock::now();
  mode.wall_ms = std::chrono::duration<double, std::milli>(stop - start).count();
  if (!mode.run.completed) {
    std::fprintf(stderr, "e2e_profile: %s%s run did not drain all jobs\n",
                 warm ? "warm" : "cold", scalar_wcde ? "-scalar" : "");
    std::exit(2);
  }
  mode.overhead = summarize_plan_overhead(mode.run);
  const auto utilities = achieved_utilities(mode.run.jobs);
  for (double u : utilities) mode.mean_utility += u;
  if (!utilities.empty()) mode.mean_utility /= static_cast<double>(utilities.size());
  return mode;
}

double env_or(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' ? std::atof(value) : fallback;
}

}  // namespace
}  // namespace rush

int main() {
  using rush::ModeResult;
  using rush::PlanOverheadSummary;
  using rush::TextTable;

  const int jobs = static_cast<int>(rush::env_or("RUSH_E2E_JOBS", 32.0));
  const auto seed = static_cast<std::uint64_t>(rush::env_or("RUSH_E2E_SEED", 4242.0));
  const double min_ratio = rush::env_or("RUSH_E2E_MIN_PROBE_RATIO", 0.0);
  const double min_wcde_speedup = rush::env_or("RUSH_E2E_MIN_WCDE_SPEEDUP", 0.0);

  const ModeResult cold = rush::run_mode(false, false, jobs, seed);
  const ModeResult warm = rush::run_mode(true, false, jobs, seed);
  const ModeResult scalar = rush::run_mode(true, true, jobs, seed);

  const std::string csv_path = rush::output_path("e2e_profile.csv");
  rush::CsvWriter csv(csv_path,
                      {"mode", "jobs", "passes", "peel_probes", "probes_per_pass",
                       "warm_pass_fraction", "warm_layers_per_pass", "wcde_us_per_pass",
                       "peel_us_per_pass", "map_us_per_pass", "plan_us_per_pass",
                       "wcde_cache_hit_rate", "run_wall_ms", "makespan_s",
                       "mean_utility"});
  TextTable table({"mode", "passes", "probes/pass", "peel us/pass", "plan us/pass",
                   "cache hits", "mean utility"});
  const auto emit = [&](const char* name, const ModeResult& m) {
    const PlanOverheadSummary& o = m.overhead;
    csv.add_row({name, std::to_string(jobs), std::to_string(o.passes),
                 std::to_string(m.run.plan_peel_probes),
                 TextTable::num(o.probes_per_pass, 2),
                 TextTable::num(o.warm_pass_fraction, 3),
                 TextTable::num(o.warm_layers_per_pass, 2),
                 TextTable::num(o.wcde_us, 1), TextTable::num(o.peel_us, 1),
                 TextTable::num(o.map_us, 1), TextTable::num(o.per_pass_us, 1),
                 TextTable::num(o.cache_hit_rate, 3), TextTable::num(m.wall_ms, 1),
                 TextTable::num(m.run.makespan, 1),
                 TextTable::num(m.mean_utility, 4)});
    table.add_row({name, std::to_string(o.passes), TextTable::num(o.probes_per_pass, 2),
                   TextTable::num(o.peel_us, 1), TextTable::num(o.per_pass_us, 1),
                   TextTable::num(o.cache_hit_rate, 3),
                   TextTable::num(m.mean_utility, 4)});
  };
  emit("cold", cold);
  emit("warm", warm);
  emit("warm-scalar", scalar);
  table.print(std::cout);

  const double cold_probes = cold.overhead.probes_per_pass;
  const double warm_probes = warm.overhead.probes_per_pass;
  const double ratio = warm_probes > 0.0 ? cold_probes / warm_probes : 0.0;
  std::printf("\npeel probes per pass: cold %.2f, warm %.2f -> %.2fx fewer\n",
              cold_probes, warm_probes, ratio);
  const double wcde_speedup =
      warm.overhead.wcde_us > 0.0 ? scalar.overhead.wcde_us / warm.overhead.wcde_us : 0.0;
  std::printf("WCDE us per pass: warm-scalar %.2f, warm %.2f -> %.2fx\n",
              scalar.overhead.wcde_us, warm.overhead.wcde_us, wcde_speedup);
  std::printf("wrote %s\n", csv_path.c_str());

  const char* json_env = std::getenv("RUSH_BENCH_JSON");
  const std::string json_path =
      json_env != nullptr && *json_env != '\0' ? json_env : "BENCH_e2e.json";
  {
    std::ofstream json(json_path, std::ios::trunc);
    const auto mode_json = [&](const char* name, const ModeResult& m) {
      const PlanOverheadSummary& o = m.overhead;
      json << "  \"" << name << "\": {\n"
           << "    \"passes\": " << o.passes << ",\n"
           << "    \"peel_probes\": " << m.run.plan_peel_probes << ",\n"
           << "    \"probes_per_pass\": " << o.probes_per_pass << ",\n"
           << "    \"warm_pass_fraction\": " << o.warm_pass_fraction << ",\n"
           << "    \"warm_layers_per_pass\": " << o.warm_layers_per_pass << ",\n"
           << "    \"wcde_us_per_pass\": " << o.wcde_us << ",\n"
           << "    \"peel_us_per_pass\": " << o.peel_us << ",\n"
           << "    \"map_us_per_pass\": " << o.map_us << ",\n"
           << "    \"plan_us_per_pass\": " << o.per_pass_us << ",\n"
           << "    \"wcde_cache_hit_rate\": " << o.cache_hit_rate << ",\n"
           << "    \"run_wall_ms\": " << m.wall_ms << ",\n"
           << "    \"makespan_s\": " << m.run.makespan << ",\n"
           << "    \"mean_utility\": " << m.mean_utility << "\n"
           << "  }";
    };
    json << "{\n"
         << "  \"bench\": \"e2e_profile\",\n"
         << rush_bench::provenance_json_fields()
         << "  \"jobs\": " << jobs << ",\n"
         << "  \"seed\": " << seed << ",\n";
    mode_json("cold", cold);
    json << ",\n";
    mode_json("warm", warm);
    json << ",\n";
    mode_json("warm_scalar", scalar);
    json << ",\n  \"probe_ratio\": " << ratio
         << ",\n  \"wcde_speedup\": " << wcde_speedup << "\n}\n";
  }
  std::printf("wrote %s\n", json_path.c_str());

  if (warm_probes > cold_probes) {
    std::fprintf(stderr,
                 "e2e_profile: FAIL — warm probes/pass (%.2f) exceed cold (%.2f)\n",
                 warm_probes, cold_probes);
    return 1;
  }
  if (min_ratio > 0.0 && ratio < min_ratio) {
    std::fprintf(stderr,
                 "e2e_profile: FAIL — probe ratio %.2fx below required %.2fx\n",
                 ratio, min_ratio);
    return 1;
  }
  // Perf-smoke gate on the production WCDE stage (cache, identity memo and
  // batched kernel, DESIGN.md §5i): it must stay this many times faster per
  // pass than the scalar stage measured in the same run, on the same host.
  if (min_wcde_speedup > 0.0 && wcde_speedup < min_wcde_speedup) {
    std::fprintf(stderr,
                 "e2e_profile: FAIL — WCDE speedup %.2fx below required %.2fx\n",
                 wcde_speedup, min_wcde_speedup);
    return 1;
  }
  return 0;
}
