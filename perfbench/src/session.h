// One rushd session driven in process: frames through FrameBuffer and
// decode_client_message, RushDaemon::handle with the write-ahead log on,
// and encode_frame for every response — the socket path minus the socket.
//
// Load model: closed loop, one client.  The client is the VirtualCluster
// (load.h); it sends its next frame only after the daemon answered the
// previous one, as the YARN ResourceManager calls its scheduler
// synchronously.  The daemon runs with --client-time semantics, so the whole
// session is a deterministic function of its seed.
//
// Phases: the ramp submits `population` jobs at seeded virtual arrival
// times; the warm-up then replaces every job that finishes with a new one,
// so the active set stays flat, until `warmup_jobs` have finished (ramp and
// warm-up are set-up, not measured); the window goes on replacing jobs and
// closes after `window_jobs` completions; the drain stops replacing jobs
// and runs until every submitted job has finished.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/load.h"
#include "src/daemon/daemon.h"

namespace perfbench {

/// Recoveries timed per session (a few milliseconds each, so the median of
/// several is steadier than one).
inline constexpr int kRecoveries = 10;

/// The daemon configuration of a session whose WAL and snapshot live at the
/// given paths.
rush::DaemonConfig session_config(const std::string& wal_path, const std::string& snapshot_path);

/// Recovers a daemon of `config` `count` times, each in a fresh RushDaemon,
/// and returns the seconds of each RushDaemon::recover().  The fresh process
/// behind run_session's recovery timings (rush_perfbench --recover-wal W
/// --recover-snapshot S) runs it kRecoveries times.
std::vector<double> time_recoveries(const rush::DaemonConfig& config, int count);

struct RushdShape {
  /// Active jobs during the window (the closed population).
  int population = 200;
  /// Job completions after the ramp before the window opens: the first
  /// turnover of a freshly ramped population plans far more expensively
  /// than the steady state, and would set the window's p99.
  int warmup_jobs = 0;
  /// Job completions that close one session's measured window; the mean
  /// utility is taken over these jobs.
  int window_jobs = 100;
  /// Mean virtual seconds between ramp arrivals.
  Seconds ramp_gap = 2.0;
  /// Window events between snapshot requests (0: none).
  int snapshot_every = 0;
  /// Request a snapshot when the window closes, so recovery replays only
  /// the drain.
  bool close_snapshot = false;
  /// Request one snapshot after the drain, so recovery restores it.
  bool final_snapshot = false;
  Physics physics;
  JobMix mix;
};

struct SessionResult {
  /// Per window event: frame fed to every response frame encoded.
  Samples event_us;
  /// Per window event, traced sessions only: the three spans of event_us.
  Samples decode_us;
  Samples handle_us;
  Samples encode_us;
  /// Per window event: bytes of all response frames.
  Samples response_bytes;
  /// Per wave frame streamed in the window.
  Samples predictions_per_wave;

  long window_events = 0;
  long window_errors = 0;
  double window_seconds = 0.0;
  double setup_seconds = 0.0;
  /// Each of kRecoveries recoveries of the session's files, timed in a
  /// fresh process.
  Samples recovery_seconds;
  /// HostSpeed factors of the set-up, window and recovery spans.
  double setup_scale = 1.0;
  double window_scale = 1.0;
  double recovery_scale = 1.0;
  std::size_t recover_replayed = 0;
  /// Mean active jobs over the window's events.
  double mean_active = 0.0;
  /// Mean utility of the jobs that finished inside the window.
  double mean_utility = 0.0;
  long window_finished = 0;

  /// Digest of every wave frame of the session, in stream order.
  std::string digest;
  long waves = 0;
  /// WAL record range of the window: [wal_window_begin, wal_window_end).
  std::size_t wal_window_begin = 0;
  std::size_t wal_window_end = 0;
  long jobs_submitted = 0;
  long errors = 0;
  long late_ends = 0;
  /// Snapshot requests the client sent only to flush a pending wave.
  long flush_requests = 0;
  std::string first_error;

  /// The daemon's job records after the drain.
  std::vector<rush::JobRecord> records;

  bool stalled = false;
  bool drained = false;
  bool wal_complete = false;
  bool recovered_records_match = false;
};

/// Runs one session against a fresh daemon whose WAL and snapshot live at
/// the given paths (both are replaced).  `traced` adds the decode / handle /
/// encode spans; otherwise only each event's end-to-end time is taken.
/// `host` brackets the set-up, the window and the recoveries with spans and
/// is probed between events inside them; probe time is not measured.
SessionResult run_session(const RushdShape& shape, std::uint64_t seed,
                          const std::string& wal_path, const std::string& snapshot_path,
                          bool traced, HostSpeed& host);

}  // namespace perfbench
