// The simulator workload: EngineSimulation under the Hadoop-style
// FairScheduler over a seeded backlog.  No planner runs here, so engine view
// refresh, batched dispatch and the virtual-clock event loop do all the work.

#pragma once

#include <cstdint>
#include <string>

#include "perfbench/src/common.h"
#include "perfbench/src/load.h"
#include "src/cluster/cluster.h"

namespace perfbench {

struct SimShape {
  int jobs = 3000;
  Physics physics;
  /// Its mean_interarrival is far shorter than a job's work on the cluster,
  /// so most of the backlog waits at once.
  JobMix mix;
};

struct SimResult {
  /// Job generation, simulation construction and submission.
  double setup_seconds = 0.0;
  /// Wall time of EngineSimulation::run().
  double run_seconds = 0.0;
  /// HostSpeed factor of the span holding set-up and run.
  double scale = 1.0;
  long events = 0;
  /// Wall time between consecutive engine events (one sample per event
  /// after the first).
  Samples event_us;
  double mean_active = 0.0;
  rush::RunResult result;
  /// Digest of every wave the engine emitted, encoded as rushd wave frames
  /// (empty unless asked for).
  std::string digest;
  long waves = 0;
};

/// Runs one simulation.  A non-empty `wal_path` also appends every event to
/// a write-ahead log there, as rushd would.  `digest` encodes and digests
/// every wave; timed runs leave both off, so they time only the simulator.
/// A non-null `host` brackets set-up and run with one span and is probed
/// between events; probe time is left out of the event gaps and run time.
SimResult run_simulation(const SimShape& shape, std::uint64_t seed,
                         const std::string& wal_path, bool digest, HostSpeed* host);

}  // namespace perfbench
