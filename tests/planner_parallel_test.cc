// Differential tests for the parallel replanning engine: across randomized
// workloads, the fanned-out planner (2, 4, 8 threads, WCDE cache on or off)
// must produce Plans bit-for-bit identical to the serial, cache-less
// reference path — with the invariant auditor armed the whole time.  Peel
// warm start (on by default) makes Plan::peel_probes depend on the pass
// history, so each reference plans the same sequence of passes as the
// planner it is compared against.  A
// determinism regression then pins the full Experiment pipeline: two runs
// with the same seed and planner_threads > 1 yield identical event traces
// and metrics CSVs.

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/rush_planner.h"
#include "src/experiments/experiment.h"
#include "src/metrics/csv.h"
#include "src/metrics/trace.h"
#include "src/workload/job_template.h"

namespace rush {
namespace {

struct Workload {
  std::vector<std::unique_ptr<UtilityFunction>> utilities;
  std::vector<PlannerJob> jobs;
  ContainerCount capacity = 1;
  Seconds now = 0.0;
  double theta = 0.9;
  double delta = 0.7;
};

Workload random_workload(std::uint64_t seed) {
  Rng rng(seed);
  Workload w;
  w.theta = rng.uniform(0.55, 0.95);
  w.delta = rng.uniform(0.0, 1.2);
  w.now = rng.uniform(0.0, 500.0);
  w.capacity = 1 + static_cast<int>(rng.uniform_int(0, 47));
  const int n = 1 + static_cast<int>(rng.uniform_int(0, 39));
  for (JobId i = 0; i < n; ++i) {
    switch (rng.uniform_int(0, 2)) {
      case 0:
        w.utilities.push_back(std::make_unique<LinearUtility>(
            w.now + rng.uniform(10.0, 400.0), rng.uniform(0.5, 5.0),
            rng.uniform(0.01, 0.5)));
        break;
      case 1:
        w.utilities.push_back(std::make_unique<SigmoidUtility>(
            w.now + rng.uniform(10.0, 400.0), rng.uniform(0.5, 5.0),
            rng.uniform(0.01, 0.5)));
        break;
      default:
        w.utilities.push_back(std::make_unique<ConstantUtility>(rng.uniform(0.5, 5.0)));
    }
    PlannerJob job;
    job.id = i;
    const double mean = rng.uniform(20.0, 2000.0);
    const std::size_t bins = rng.uniform_int(0, 1) == 0 ? 128 : 256;
    job.set_demand(QuantizedPmf::gaussian(mean, rng.uniform(0.0, 0.4) * mean, bins,
                                          mean * 3.5 / static_cast<double>(bins)));
    job.mean_runtime = rng.uniform(1.0, 60.0);
    job.samples = static_cast<std::size_t>(rng.uniform_int(0, 100));
    job.utility = w.utilities.back().get();
    w.jobs.push_back(std::move(job));
  }
  return w;
}

RushConfig planner_config(const Workload& w, int threads, bool cache, bool warm = true) {
  RushConfig config;
  config.warm_start_peeling = warm;
  config.theta = w.theta;
  config.delta = w.delta;
  config.adaptive_delta = true;  // exercise per-job deltas too
  config.audit_invariants = true;
  config.planner_threads = threads;
  config.wcde_cache = cache;
  return config;
}

// Bit-for-bit equality of two plans.  EXPECT_EQ on doubles is exact
// comparison, which is the point: the parallel path must not differ in the
// last ulp from the serial reference.
void expect_plans_identical(const Plan& got, const Plan& want,
                            const std::string& label) {
  EXPECT_EQ(got.computed_at, want.computed_at) << label;
  EXPECT_EQ(got.peel_probes, want.peel_probes) << label;
  ASSERT_EQ(got.entries.size(), want.entries.size()) << label;
  for (std::size_t i = 0; i < want.entries.size(); ++i) {
    const PlanEntry& g = got.entries[i];
    const PlanEntry& e = want.entries[i];
    EXPECT_EQ(g.id, e.id) << label << " entry " << i;
    EXPECT_EQ(g.eta, e.eta) << label << " entry " << i;
    EXPECT_EQ(g.target_completion, e.target_completion) << label << " entry " << i;
    EXPECT_EQ(g.utility_level, e.utility_level) << label << " entry " << i;
    EXPECT_EQ(g.impossible, e.impossible) << label << " entry " << i;
    EXPECT_EQ(g.desired_containers, e.desired_containers) << label << " entry " << i;
  }
}

class PlannerDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlannerDifferentialTest, ParallelAndCachedPlansMatchSerialReference) {
  const Workload w = random_workload(GetParam());
  // Two consecutive passes: the second is all cache hits when the cache is
  // on and (warm) peels from the first pass's hint, and must still be
  // identical to the reference's second pass.  The cold leg pins the
  // warm_start_peeling = false path, whose passes all equal the first.
  for (bool warm : {true, false}) {
    RushPlanner reference(planner_config(w, 1, false, warm));
    const Plan want_first = reference.plan(w.jobs, w.capacity, w.now);
    const Plan want_second = reference.plan(w.jobs, w.capacity, w.now);
    if (!warm) expect_plans_identical(want_second, want_first, "cold reference second pass");
    for (int threads : {2, 4, 8}) {
      for (bool cache : {false, true}) {
        if (!warm && (threads != 4 || !cache)) continue;
        RushPlanner planner(planner_config(w, threads, cache, warm));
        const std::string label = "threads=" + std::to_string(threads) +
                                  " cache=" + std::to_string(cache) +
                                  " warm=" + std::to_string(warm);
        expect_plans_identical(planner.plan(w.jobs, w.capacity, w.now), want_first, label);
        expect_plans_identical(planner.plan(w.jobs, w.capacity, w.now), want_second,
                               label + " second pass");
        if (cache && !w.jobs.empty()) {
          EXPECT_GE(planner.wcde_cache_stats().hits, w.jobs.size()) << label;
        }
      }
    }
  }
}

TEST_P(PlannerDifferentialTest, SingleJobMutationKeepsCachedPlansExact) {
  // The feedback-cycle common case: one container event changes one job's
  // PMF; every other entry is served from the cache.  The mutated-pass plan
  // must equal a serial, cache-less planner's answer on the mutated inputs,
  // that planner having planned the same passes before it.
  Workload w = random_workload(GetParam() + 5000);
  RushPlanner planner(planner_config(w, 4, true));
  RushPlanner reference(planner_config(w, 1, false));
  expect_plans_identical(planner.plan(w.jobs, w.capacity, w.now),  // warm the cache
                         reference.plan(w.jobs, w.capacity, w.now), "first pass");

  Rng rng(GetParam() + 9999);
  for (int event = 0; event < 5 && !w.jobs.empty(); ++event) {
    auto& job =
        w.jobs[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(w.jobs.size()) - 1))];
    const double mean = rng.uniform(20.0, 2000.0);
    job.set_demand(QuantizedPmf::gaussian(mean, rng.uniform(0.05, 0.4) * mean, 128,
                                          mean * 3.5 / 128.0));
    job.samples += 1;

    expect_plans_identical(planner.plan(w.jobs, w.capacity, w.now),
                           reference.plan(w.jobs, w.capacity, w.now),
                           "event " + std::to_string(event));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerDifferentialTest,
                         ::testing::Range<std::uint64_t>(1, 51));

// ---------- Experiment-level determinism regression ----------

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_metrics_csv(const std::string& path, const RunResult& result) {
  CsvWriter csv(path, {"job", "name", "completion", "utility", "latency"});
  for (const JobRecord& job : result.jobs) {
    csv.add_row({std::to_string(job.id), job.name, std::to_string(job.completion),
                 std::to_string(job.utility), std::to_string(job.latency())});
  }
}

void expect_traces_identical(const TraceRecorder& a, const TraceRecorder& b) {
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    const TraceEvent& x = a.events()[i];
    const TraceEvent& y = b.events()[i];
    EXPECT_EQ(x.time, y.time) << "event " << i;
    EXPECT_EQ(x.kind, y.kind) << "event " << i;
    EXPECT_EQ(x.job, y.job) << "event " << i;
    EXPECT_EQ(x.container, y.container) << "event " << i;
    EXPECT_EQ(x.value, y.value) << "event " << i;
    EXPECT_EQ(x.label, y.label) << "event " << i;
  }
}

TEST(PlannerDeterminism, ThreadedExperimentRunsAreBitReproducible) {
  // Guards the Simulator's sequence-number tie-break (and everything else in
  // the pipeline) against the planner's threading: fanning WCDE solves out
  // must not perturb one bit of the event trace or the metrics.
  ExperimentConfig config;
  config.num_jobs = 12;
  config.mean_interarrival = 90.0;
  config.min_gigabytes = 0.5;
  config.max_gigabytes = 3.0;
  config.budget_ratio = 1.5;
  config.noise_sigma = 0.25;
  config.seed = 77;
  config.nodes = homogeneous_nodes(2, 6);  // 12 containers
  config.rush.planner_threads = 4;
  config.rush.wcde_cache = true;

  TraceRecorder trace_a;
  config.observer = &trace_a;
  const RunResult run_a = run_experiment("RUSH", config);
  TraceRecorder trace_b;
  config.observer = &trace_b;
  const RunResult run_b = run_experiment("RUSH", config);

  ASSERT_TRUE(run_a.completed);
  ASSERT_TRUE(run_b.completed);
  expect_traces_identical(trace_a, trace_b);

  // The CSV artefacts (event trace + per-job metrics) must be byte-equal.
  const std::string dir = ::testing::TempDir();
  const std::string trace_a_csv = dir + "/determinism_trace_a.csv";
  const std::string trace_b_csv = dir + "/determinism_trace_b.csv";
  const std::string metrics_a_csv = dir + "/determinism_metrics_a.csv";
  const std::string metrics_b_csv = dir + "/determinism_metrics_b.csv";
  trace_a.write_csv(trace_a_csv);
  trace_b.write_csv(trace_b_csv);
  write_metrics_csv(metrics_a_csv, run_a);
  write_metrics_csv(metrics_b_csv, run_b);
  const std::string trace_bytes = slurp(trace_a_csv);
  EXPECT_FALSE(trace_bytes.empty());
  EXPECT_EQ(trace_bytes, slurp(trace_b_csv));
  const std::string metrics_bytes = slurp(metrics_a_csv);
  EXPECT_FALSE(metrics_bytes.empty());
  EXPECT_EQ(metrics_bytes, slurp(metrics_b_csv));
  for (const std::string& path :
       {trace_a_csv, trace_b_csv, metrics_a_csv, metrics_b_csv}) {
    std::remove(path.c_str());
  }
}

TEST(PlannerDeterminism, ThreadCountDoesNotChangeTheOutcome) {
  // Same experiment, serial vs 8-lane planner: identical job outcomes.
  ExperimentConfig config;
  config.num_jobs = 10;
  config.mean_interarrival = 100.0;
  config.min_gigabytes = 0.5;
  config.max_gigabytes = 2.5;
  config.budget_ratio = 2.0;
  config.seed = 31;
  config.nodes = homogeneous_nodes(2, 6);
  config.rush.planner_threads = 1;
  config.rush.wcde_cache = false;
  const RunResult serial = run_experiment("RUSH", config);

  config.rush.planner_threads = 8;
  config.rush.wcde_cache = true;
  const RunResult threaded = run_experiment("RUSH", config);

  ASSERT_EQ(serial.jobs.size(), threaded.jobs.size());
  for (std::size_t i = 0; i < serial.jobs.size(); ++i) {
    EXPECT_EQ(serial.jobs[i].completion, threaded.jobs[i].completion) << i;
    EXPECT_EQ(serial.jobs[i].utility, threaded.jobs[i].utility) << i;
  }
  EXPECT_EQ(serial.makespan, threaded.makespan);
  EXPECT_EQ(serial.assignments, threaded.assignments);
}

}  // namespace
}  // namespace rush
