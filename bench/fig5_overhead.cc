// Fig 5 — resource consumption and execution time of the RUSH scheduler.
//
// The paper submits WordCount jobs with random configurations so that 20 to
// 1000 jobs are simultaneously active, and measures the scheduler's CPU,
// memory and algorithm runtime (0.32 s at 20 jobs to 7.34 s at 1000, RAM
// < 130 MB).  Here google-benchmark times one full CA planning pass (WCDE +
// onion peeling + slot mapping + queue census) over the same job-count
// sweep; heap usage of the pass is reported through a counting allocator.
//
// Expected shape: near-linear growth in job count, absolute times small
// (our pass is faster than the paper's JVM implementation; the shape is
// what matters), memory well under the paper's 130 MB.

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include <benchmark/benchmark.h>

#include "src/common/rng.h"
#include "src/core/rush_planner.h"
#include "src/utility/utility_function.h"

namespace {

std::atomic<std::size_t> g_allocated{0};

}  // namespace

// Counting allocator hooks: track bytes requested while a planning pass
// runs.  Replacing the global operators is legal ([replacement.functions]);
// GCC's -Wmismatched-new-delete cannot see that the replacement is
// program-wide and flags the std::free, so the diagnostic is silenced here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_allocated.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();  // lint: R4-ok(replacement operator new must throw bad_alloc)
}

void* operator new[](std::size_t size) {
  g_allocated.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();  // lint: R4-ok(replacement operator new must throw bad_alloc)
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace rush {
namespace {

/// WordCount-like planner inputs with randomised budgets/priorities.
struct Fixture {
  std::vector<std::unique_ptr<UtilityFunction>> utilities;
  std::vector<PlannerJob> jobs;
};

Fixture make_jobs(int count, std::uint64_t seed) {
  Fixture f;
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    const double budget = rng.uniform(100.0, 2000.0);
    f.utilities.push_back(std::make_unique<SigmoidUtility>(
        budget, rng.uniform(1.0, 5.0), 8.8 / (0.3 * budget)));
    PlannerJob job;
    job.id = i;
    const double mean = rng.uniform(500.0, 5000.0);
    job.set_demand(QuantizedPmf::gaussian(mean, 0.15 * mean, 256, mean / 128.0));
    job.mean_runtime = rng.uniform(20.0, 60.0);
    job.samples = 40;
    job.utility = f.utilities.back().get();
    f.jobs.push_back(std::move(job));
  }
  return f;
}

// Second argument: peel warm start.  Cold (0) times a fresh instance, the
// one-shot algorithm run the paper reports; warm (1, the planner default)
// times the steady state, where every pass after the first peels from the
// previous pass's hints — over these identical inputs, its best case.
void BM_PlanningPass(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  const Fixture fixture = make_jobs(jobs, 91);
  RushConfig config;
  config.warm_start_peeling = state.range(1) != 0;
  RushPlanner planner(config);
  // A planner's first pass has no hints; keep it out of the warm timing.
  if (config.warm_start_peeling) planner.plan(fixture.jobs, 48, 0.0);

  std::size_t bytes_per_pass = 0;
  long probes = 0;
  for (auto _ : state) {
    const std::size_t before = g_allocated.load(std::memory_order_relaxed);
    const Plan plan = planner.plan(fixture.jobs, 48, 0.0);
    benchmark::DoNotOptimize(plan.entries.data());
    bytes_per_pass = g_allocated.load(std::memory_order_relaxed) - before;
    probes = plan.peel_probes;
  }
  state.counters["jobs"] = jobs;
  state.counters["peel_probes"] = static_cast<double>(probes);
  state.counters["alloc_MB_per_pass"] =
      static_cast<double>(bytes_per_pass) / (1024.0 * 1024.0);
}

BENCHMARK(BM_PlanningPass)
    ->ArgsProduct({{20, 50, 100, 200, 500, 1000}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// The WCDE step alone (per job, the dominant O(bins) part of the pass).
void BM_WcdePerJob(benchmark::State& state) {
  const Fixture fixture = make_jobs(1, 7);
  RushConfig config;
  RushPlanner planner(config);
  for (auto _ : state) {
    const Plan plan = planner.plan(fixture.jobs, 48, 0.0);
    benchmark::DoNotOptimize(plan.entries.front().eta);
  }
}

BENCHMARK(BM_WcdePerJob)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace rush

BENCHMARK_MAIN();
