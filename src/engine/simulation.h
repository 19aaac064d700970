// Virtual-clock event source: the repo's simulator, built on the
// SchedulerEngine (DESIGN.md §5j).  It stands in for the paper's YARN
// Hadoop testbed (DESIGN.md §2).
//
// EngineSimulation owns the physics the engine deliberately does not —
// per-task nominal runtimes, node speed factors, the noise/failure RNG —
// and turns them into the engine's event vocabulary: a submitted JobSpec
// becomes a JobSubmitted event at its arrival time; every container grant
// the engine makes comes back (via the EngineExecutor seam) as a sampled
// TaskFinished or ContainerFreed event on the virtual clock.  Each attempt
// draws, in order, its lognormal noise, its failure coin and (when it
// fails) its wasted fraction, so a seeded run is reproducible to the bit
// (tests/sim_golden_test.cc freezes the digests).  Runtimes are nominal x
// node speed x noise, sampled when the attempt starts — the scheduler only
// ever observes completed runtimes.
//
// With speculation on, the engine launches backup attempts itself and
// reports each killed loser through EngineExecutor::on_kill; the
// simulation then drops that attempt's pending completion.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/job.h"
#include "src/cluster/node.h"
#include "src/common/rng.h"
#include "src/engine/engine.h"
#include "src/sim/simulator.h"

namespace rush {

struct EngineSimulationConfig {
  std::vector<Node> nodes;
  /// Sigma of the lognormal multiplicative runtime noise (0 = none).
  double runtime_noise_sigma = 0.2;
  /// Probability an attempt dies mid-run; wastes uniform 10-90% of its
  /// would-be runtime and re-queues the task (ContainerFreed event).
  double task_failure_probability = 0.0;
  /// RNG seed for runtime sampling.
  std::uint64_t seed = 1;
  /// Hard stop for the simulation clock.
  Seconds max_time = 1e9;
  /// Forwarded to EngineConfig::audit_view.
  bool audit_view = kDcheckEnabled;
  /// Forwarded to EngineConfig::speculation.
  SpeculationConfig speculation = {};
};

class EngineSimulation : private EngineExecutor {
 public:
  EngineSimulation(EngineSimulationConfig config, Scheduler& scheduler);

  /// Attaches a trace observer / record sink (not owned; may be null).
  /// Must be set before run().
  void set_observer(ClusterObserver* observer) { engine_.set_observer(observer); }
  void set_sink(EngineSink* sink) { engine_.set_sink(sink); }

  /// Registers a job for submission at spec.arrival.  Must be called
  /// before run(); throws InvalidInput for a job without tasks, a negative
  /// arrival or a non-positive task runtime (the engine validates the rest
  /// of the job's config when it arrives).  Ids
  /// are dense in submission order, carried explicitly on the JobSubmitted
  /// events so arrival-order ties cannot renumber jobs.
  JobId submit(JobSpec spec);

  /// Runs until every submitted job completes (or max_time).
  RunResult run();

  ContainerCount capacity() const { return engine_.capacity(); }
  SchedulerEngine& engine() { return engine_; }

 private:
  /// Per-container physics: node speed, and the number of the attempt
  /// whose completion is pending there.  Every grant and every kill bumps
  /// it, so the event of a killed attempt finds a newer number and is
  /// dropped.
  struct SimContainer {
    double speed_factor = 1.0;
    std::uint64_t attempt = 0;
  };

  /// Submitted-but-not-yet-arrived physics of one job.
  struct SimJob {
    JobSpec spec;
    /// Nominal runtimes split by kind, indexed by the engine's task_index.
    std::vector<Seconds> map_nominal;
    std::vector<Seconds> reduce_nominal;
  };

  void on_assignment(Seconds now, const EngineAssignment& assignment) override;
  void on_kill(Seconds now, int container) override;

  static ContainerCount total_capacity(const std::vector<Node>& nodes);

  EngineSimulationConfig config_;
  SchedulerEngine engine_;
  Simulator sim_;
  Rng rng_;
  std::vector<SimContainer> containers_;
  std::vector<SimJob> jobs_;
  bool ran_ = false;
};

}  // namespace rush
