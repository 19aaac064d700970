// Frozen golden digests of whole simulator runs.
//
// The matrix is 50 seeded workloads x {RUSH, EDF, FIFO, RRH, Fair} x
// speculation off/on, on a 6-container cluster with lognormal runtime noise
// and, for about half the seeds, task-failure injection.  Every run keeps
// the incremental-view audit armed.  One digest per (scheduler,
// speculation) folds all 50 seeds and hashes everything a consumer of a
// run can observe:
//   - the full event trace (time, kind, job, container, value, label),
//   - the metrics CSV bytes (job, name, completion, utility, latency),
//   - every job record field (IEEE-754 bit patterns),
//   - the RunResult counters: makespan, completed, scheduling events,
//     assignments, failures, speculative attempts and kills, dispatch
//     waves and view updates.
//
// A mismatch means a run changed; the failure message prints the new
// digest.  Only refreeze after proving the change intended.  The digests
// hash IEEE-754 bit patterns, so they assume the default x86-64 build
// (SSE2 arithmetic, no FMA contraction, the glibc libm).

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/node.h"
#include "src/common/rng.h"
#include "src/engine/simulation.h"
#include "src/experiments/experiment.h"
#include "src/metrics/csv.h"
#include "src/metrics/trace.h"

namespace rush {
namespace {

/// FNV-1a over 64-bit words (doubles by bit pattern) and bytes.
class Digest {
 public:
  void add(std::uint64_t word) {
    hash_ ^= word;
    hash_ *= 0x100000001B3ULL;
  }
  void add(double x) { add(std::bit_cast<std::uint64_t>(x)); }
  void add(long x) { add(static_cast<std::uint64_t>(x)); }
  void add(int x) { add(static_cast<std::uint64_t>(static_cast<std::int64_t>(x))); }
  void add(bool x) { add(static_cast<std::uint64_t>(x ? 1 : 0)); }
  void add(const std::string& bytes) {
    add(static_cast<std::uint64_t>(bytes.size()));
    for (const char c : bytes) add(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
  std::uint64_t get() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

std::string hex(std::uint64_t x) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(x));
  return buf;
}

std::vector<JobSpec> random_workload(std::uint64_t seed) {
  Rng rng(seed);
  const int num_jobs = 3 + static_cast<int>(rng.uniform_int(0, 4));
  std::vector<JobSpec> specs;
  for (int j = 0; j < num_jobs; ++j) {
    JobSpec spec;
    spec.name = "job" + std::to_string(j);
    spec.arrival = rng.uniform(0.0, 150.0);
    spec.budget = rng.uniform(60.0, 400.0);
    spec.priority = rng.uniform(0.5, 3.0);
    spec.beta = rng.uniform(0.5, 2.0);
    switch (rng.uniform_int(0, 2)) {
      case 0: spec.utility_kind = "linear"; break;
      case 1: spec.utility_kind = "sigmoid"; break;
      default: spec.utility_kind = "constant"; break;
    }
    const int maps = 1 + static_cast<int>(rng.uniform_int(0, 9));
    const int reduces = static_cast<int>(rng.uniform_int(0, 3));
    for (int m = 0; m < maps; ++m) {
      spec.tasks.push_back(TaskSpec{rng.uniform(5.0, 50.0), false});
    }
    for (int r = 0; r < reduces; ++r) {
      spec.tasks.push_back(TaskSpec{rng.uniform(5.0, 40.0), true});
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// One run of the seeded workload: 2 nodes x 3 containers, noise 0.3,
/// failures at p = 0.08 for about half the seeds.
RunResult simulate(std::uint64_t seed, const std::string& scheduler_name,
                   bool speculation, TraceRecorder& trace) {
  Rng knobs(seed * 7919);
  EngineSimulationConfig config;
  config.nodes = homogeneous_nodes(2, 3);
  config.runtime_noise_sigma = 0.3;
  config.task_failure_probability = knobs.uniform() < 0.5 ? 0.08 : 0.0;
  config.speculation.enabled = speculation;
  config.seed = seed + 17;
  config.audit_view = true;
  const auto scheduler = make_named_scheduler(scheduler_name);
  EngineSimulation simulation(config, *scheduler);
  simulation.set_observer(&trace);
  for (JobSpec spec : random_workload(seed)) simulation.submit(std::move(spec));
  return simulation.run();
}

std::string metrics_csv_bytes(const RunResult& result) {
  const std::string path = ::testing::TempDir() + "/sim_golden_metrics.csv";
  {
    CsvWriter csv(path, {"job", "name", "completion", "utility", "latency"});
    for (const JobRecord& job : result.jobs) {
      csv.add_row({std::to_string(job.id), job.name, std::to_string(job.completion),
                   std::to_string(job.utility), std::to_string(job.latency())});
    }
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::remove(path.c_str());
  return buffer.str();
}

void add_run(Digest& d, const RunResult& result, const TraceRecorder& trace) {
  d.add(static_cast<long>(trace.events().size()));
  for (const TraceEvent& e : trace.events()) {
    d.add(e.time);
    d.add(static_cast<int>(e.kind));
    d.add(static_cast<long>(e.job));
    d.add(e.container);
    d.add(e.value);
    d.add(e.label);
  }
  d.add(metrics_csv_bytes(result));
  d.add(static_cast<long>(result.jobs.size()));
  for (const JobRecord& job : result.jobs) {
    d.add(static_cast<long>(job.id));
    d.add(job.name);
    d.add(job.arrival);
    d.add(job.budget);
    d.add(job.priority);
    d.add(static_cast<int>(job.sensitivity));
    d.add(job.completion);
    d.add(job.tasks);
    d.add(job.best_possible_utility);
    d.add(job.utility);
  }
  d.add(result.makespan);
  d.add(result.completed);
  d.add(result.scheduling_events);
  d.add(result.assignments);
  d.add(result.task_failures);
  d.add(result.speculative_attempts);
  d.add(result.speculative_kills);
  d.add(result.dispatch_waves);
  d.add(result.view_updates);
}

struct GoldenCase {
  const char* scheduler;
  bool speculation;
  std::uint64_t digest;
};

constexpr GoldenCase kGolden[] = {
    {"RUSH", false, 0x093908ed3600db19},
    {"RUSH", true, 0x8991e9a59c63e816},
    {"EDF", false, 0x440881901b9506ef},
    {"EDF", true, 0xe4d7970742573410},
    {"FIFO", false, 0x1b255770e249adbd},
    {"FIFO", true, 0x776e0b32cc87f97d},
    {"RRH", false, 0xc66330d9f05a21d1},
    {"RRH", true, 0x745375248562cc8d},
    {"Fair", false, 0x82f385e924e84f36},
    {"Fair", true, 0xaee34fda78d0b929},
};

TEST(SimGolden, RunDigestsAreFrozen) {
  for (const GoldenCase& c : kGolden) {
    const std::string context =
        std::string(c.scheduler) + "/spec=" + (c.speculation ? "on" : "off");
    Digest digest;
    long speculative = 0;
    long kills = 0;
    long failures = 0;
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
      TraceRecorder trace;
      const RunResult result = simulate(seed, c.scheduler, c.speculation, trace);
      ASSERT_TRUE(result.completed) << context << " seed " << seed;
      speculative += result.speculative_attempts;
      kills += result.speculative_kills;
      failures += result.task_failures;
      add_run(digest, result, trace);
    }
    EXPECT_EQ(digest.get(), c.digest) << context << ": now " << hex(digest.get());
    // The matrix must exercise what it claims to freeze.
    EXPECT_GT(failures, 0) << context;
    if (c.speculation) {
      EXPECT_GT(speculative, 0) << context;
      EXPECT_GT(kills, 0) << context;
    } else {
      EXPECT_EQ(speculative + kills, 0) << context;
    }
  }
}

}  // namespace
}  // namespace rush
