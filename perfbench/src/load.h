// The seeded load generator.
//
// JobStream draws jobs with the repository's §V-B workload generator
// (rush::generate_workload: PUMA templates, a 20/60/20 critical / sensitive /
// insensitive mix, budget = budget_ratio x benchmarked runtime, priorities
// 1..5); a workload chooses only the data-set range and the arrival gap.
// VirtualCluster plays the YARN ResourceManager of a rushd session: a
// single-threaded, virtual-clock cluster that turns every streamed grant into
// the frame ending it (kTaskFinished, or kContainerFreed when the attempt
// fails).  The daemon sees only these generated frames; the per-task
// runtimes stay here, as physics a real scheduler cannot see.

#pragma once

#include <cstdint>
#include <deque>
#include <queue>
#include <vector>

#include "src/cluster/job.h"
#include "src/config/job_config.h"
#include "src/daemon/protocol.h"
#include "src/engine/engine.h"
#include "src/workload/generator.h"

namespace perfbench {

using rush::JobId;
using rush::Seconds;

/// Attempt physics: multiplicative lognormal runtime noise and a failure
/// coin.  sigma is the experiments' default (ExperimentConfig::noise_sigma);
/// the failure rate is bench/daemon_throughput's, the rushd load this
/// benchmark supersedes.
struct Physics {
  double noise_sigma = 0.25;
  double failure_probability = 0.02;
};

/// What a workload changes in the paper's generator.  Data sets of 0.1-0.5
/// GB give PUMA jobs of 2-12 tasks (the paper's 1-10 GB gives 9-164), so a
/// session turns over thousands of jobs and the closed population, not a
/// queue of tens of thousands of tasks, sets the scheduler's load.
struct JobMix {
  double min_gigabytes = 0.1;
  double max_gigabytes = 0.5;
  /// Mean Poisson gap of the generator's arrival times (used by sim-fair;
  /// rushd sessions set their own arrival times).
  Seconds mean_interarrival = 130.0;
};

struct GeneratedJob {
  /// The generator's job: budget, utility shape and nominal task runtimes
  /// (maps first, then reduces).
  rush::JobSpec spec;
  /// What the client submits: the spec without its per-task physics.
  rush::JobConfig config;
  int maps = 0;
};

/// Job k of a stream is the generator's k-th job for the stream's seed,
/// whenever it is asked for: the generator is prefix-stable, so growing the
/// stream gives the same jobs.
class JobStream {
 public:
  JobStream(JobMix mix, std::uint64_t seed, Physics physics);

  /// Draws jobs up to index `count - 1`.
  void generate(std::size_t count);
  const GeneratedJob& at(std::size_t index);

 private:
  rush::WorkloadConfig config_;
  std::deque<GeneratedJob> jobs_;  // deque: references survive growth
};

class VirtualCluster {
 public:
  VirtualCluster(Physics physics, std::uint64_t seed) : physics_(physics), rng_(seed) {}

  /// Registers an acknowledged job.  Ids are dense in submission order.
  void add_job(JobId id, const GeneratedJob& job);

  /// Realizes one wave's grants: samples each attempt's outcome and queues
  /// the frame that ends it.
  void on_wave(const rush::EngineWave& wave);

  bool has_pending() const { return !pending_.empty(); }
  Seconds next_time() const { return pending_.top().end; }

  /// Pops the earliest attempt end as a client message stamped
  /// max(end, now): a grant streams back only when a later event flushes its
  /// wave, so an attempt can end before the frame that reported it.  Sets
  /// `finished_job` when the message completes a job's last task.
  rush::ClientMessage pop(Seconds now, JobId& finished_job);

  /// Attempt ends that had to be stamped later than their sampled time.
  long late_ends() const { return late_ends_; }

 private:
  struct Attempt {
    Seconds end = 0.0;
    long seq = 0;  // FIFO among equal end times
    JobId job = rush::kInvalidJob;
    int container = -1;
    bool failed = false;
    Seconds amount = 0.0;  // runtime, or wasted seconds when failed
  };
  struct Later {
    bool operator()(const Attempt& a, const Attempt& b) const {
      return a.end != b.end ? a.end > b.end : a.seq > b.seq;
    }
  };
  struct ClientJob {
    const GeneratedJob* job = nullptr;
    int remaining = 0;
  };

  Physics physics_;
  rush::Rng rng_;
  std::vector<ClientJob> jobs_;
  std::priority_queue<Attempt, std::vector<Attempt>, Later> pending_;
  long seq_ = 0;
  long late_ends_ = 0;
};

}  // namespace perfbench
