// Scheduler-seam tests (DESIGN.md §5e).
//
// A determinism regression pins two RUSH experiment runs (warm-start
// peeling on, incremental-view audit armed) against each other, and a unit
// test covers ClusterView::find with and without its id -> index map.  The
// seam's byte-identity across schedulers, speculation and failures is
// frozen by tests/sim_golden_test.cc.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/cluster/node.h"
#include "src/experiments/experiment.h"
#include "src/metrics/csv.h"
#include "src/metrics/trace.h"

namespace rush {
namespace {

// ---------- helpers ----------

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

void expect_traces_identical(const TraceRecorder& a, const TraceRecorder& b,
                             const std::string& context) {
  ASSERT_EQ(a.events().size(), b.events().size()) << context;
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    const TraceEvent& x = a.events()[i];
    const TraceEvent& y = b.events()[i];
    EXPECT_EQ(x.time, y.time) << context << " event " << i;
    EXPECT_EQ(x.kind, y.kind) << context << " event " << i;
    EXPECT_EQ(x.job, y.job) << context << " event " << i;
    EXPECT_EQ(x.container, y.container) << context << " event " << i;
    EXPECT_EQ(x.value, y.value) << context << " event " << i;
    EXPECT_EQ(x.label, y.label) << context << " event " << i;
  }
}

void expect_metrics_bytes_identical(const RunResult& a, const RunResult& b,
                                    const std::string& context) {
  const std::string dir = ::testing::TempDir();
  const std::string path_a = dir + "/seam_metrics_a.csv";
  const std::string path_b = dir + "/seam_metrics_b.csv";
  write_metrics_csv(path_a, a);
  write_metrics_csv(path_b, b);
  const std::string bytes = slurp(path_a);
  EXPECT_FALSE(bytes.empty()) << context;
  EXPECT_EQ(bytes, slurp(path_b)) << context;
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

// ---------- RUSH determinism with warm-started peeling ----------

TEST(SeamDeterminism, RushRunsAreBitReproducible) {
  ExperimentConfig config;
  config.num_jobs = 10;
  config.mean_interarrival = 90.0;
  config.min_gigabytes = 0.5;
  config.max_gigabytes = 3.0;
  config.budget_ratio = 1.5;
  config.noise_sigma = 0.25;
  config.seed = 1234;
  config.nodes = homogeneous_nodes(2, 6);
  config.rush.warm_start_peeling = true;
  config.audit_view = true;

  TraceRecorder trace_a;
  config.observer = &trace_a;
  const RunResult run_a = run_experiment("RUSH", config);
  TraceRecorder trace_b;
  config.observer = &trace_b;
  const RunResult run_b = run_experiment("RUSH", config);

  ASSERT_TRUE(run_a.completed);
  ASSERT_TRUE(run_b.completed);
  expect_traces_identical(trace_a, trace_b, "warm-start determinism");
  expect_metrics_bytes_identical(run_a, run_b, "warm-start determinism");
}

// ---------- ClusterView::find unit coverage ----------

TEST(ClusterViewFind, UsesIndexWhenPresentAndFallsBackWhenAbsent) {
  ClusterView view;
  for (const JobId id : {2, 5, 9}) {
    JobView jv;
    jv.id = id;
    jv.total_tasks = static_cast<int>(id) * 10;
    view.jobs.push_back(jv);
  }

  // Hand-built views (tests, make_view) carry no index: the linear
  // fallback must still resolve ids.
  ASSERT_TRUE(view.id_to_index.empty());
  ASSERT_NE(view.find(5), nullptr);
  EXPECT_EQ(view.find(5)->total_tasks, 50);
  EXPECT_EQ(view.find(3), nullptr);
  EXPECT_EQ(view.find(-1), nullptr);

  // With the index populated, lookups resolve through it — including misses
  // for ids inside the index range that hold no job.
  view.id_to_index.assign(10, -1);
  view.id_to_index[2] = 0;
  view.id_to_index[5] = 1;
  view.id_to_index[9] = 2;
  ASSERT_NE(view.find(9), nullptr);
  EXPECT_EQ(view.find(9)->total_tasks, 90);
  EXPECT_EQ(view.find(3), nullptr);
  EXPECT_EQ(view.find(42), nullptr);
  JobView* mutable_slot = view.find_mutable(2);
  ASSERT_NE(mutable_slot, nullptr);
  mutable_slot->running_tasks = 7;
  EXPECT_EQ(view.jobs[0].running_tasks, 7);
}

}  // namespace
}  // namespace rush
