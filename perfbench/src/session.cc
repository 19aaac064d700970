#include "perfbench/src/session.h"

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <vector>

#include "src/common/error.h"
#include "src/daemon/daemon.h"
#include "src/engine/event_log.h"

namespace perfbench {

namespace {

using rush::ClientMessage;
using rush::ServerMessage;

/// The daemon side of one exchange, timed from feeding the client's frame
/// to having encoded every response frame.
class Exchange {
 public:
  Exchange(rush::RushDaemon& daemon, bool traced) : daemon_(daemon), traced_(traced) {}

  void run(const ClientMessage& message) {
    const std::string frame = rush::encode_frame(message);
    const Clock::time_point start = Clock::now();
    buffer_.feed(frame);
    rush::require(buffer_.next(body_), "perfbench: frame did not reassemble");
    const ClientMessage decoded = rush::decode_client_message(body_);
    Clock::time_point decoded_at;
    Clock::time_point handled_at;
    if (traced_) decoded_at = Clock::now();
    responses.clear();
    daemon_.handle(decoded, /*now=*/0.0, responses);
    if (traced_) handled_at = Clock::now();
    frames.resize(responses.size());
    for (std::size_t i = 0; i < responses.size(); ++i) {
      frames[i] = rush::encode_frame(responses[i]);
    }
    const Clock::time_point end = Clock::now();
    total_us = micros_between(start, end);
    if (traced_) {
      decode_us = micros_between(start, decoded_at);
      handle_us = micros_between(decoded_at, handled_at);
      encode_us = micros_between(handled_at, end);
    }
  }

  std::vector<ServerMessage> responses;
  std::vector<std::string> frames;
  double total_us = 0.0;
  double decode_us = 0.0;
  double handle_us = 0.0;
  double encode_us = 0.0;

 private:
  rush::RushDaemon& daemon_;
  bool traced_;
  rush::FrameBuffer buffer_;
  std::string body_;
};

ClientMessage bare(ClientMessage::Kind kind, Seconds time) {
  ClientMessage message;
  message.kind = kind;
  message.time = time;
  return message;
}

/// The session up to its shutdown, timed from `setup_start`.  Its daemon
/// and client are destroyed on return, before the recoveries are timed.
void drive_session(const RushdShape& shape, std::uint64_t seed,
                   const rush::DaemonConfig& config, bool traced, HostSpeed& host,
                   std::size_t setup_span, Clock::time_point setup_start, SessionResult& out) {
  const std::string& wal_path = config.event_log_path;
  rush::RushDaemon daemon(config);
  daemon.recover();
  daemon.start_logging();
  daemon.begin_session();
  Exchange exchange(daemon, traced);
  exchange.run(bare(ClientMessage::Kind::kHello, 0.0));
  rush::require(daemon.hello_done(), "perfbench: rushd refused the handshake");

  rush::Rng seeds(seed);
  JobStream jobs(shape.mix, seeds.next(), shape.physics);
  VirtualCluster cluster(shape.physics, seeds.next());
  rush::Rng arrivals(seeds.next());
  // Every job a session is likely to submit (replacements during the ramp
  // included), drawn up front so that drawing more stays out of the window.
  jobs.generate(
      static_cast<std::size_t>(2 * (shape.population + shape.warmup_jobs + shape.window_jobs)));

  enum class Phase { kRamp, kWarmup, kWindow, kDrain };
  Phase phase = Phase::kRamp;
  int ramp_arrivals = 0;
  int warmup_finished = 0;
  Seconds next_arrival = 0.0;
  int replacements = 0;
  int active = 0;
  long since_snapshot = 0;
  int idle_flushes = 0;
  bool close_snapshot_due = false;
  std::size_t wal_records = 0;
  double active_sum = 0.0;
  std::vector<JobId> finished_in_window;
  Seconds now = 0.0;
  Clock::time_point window_start;
  std::size_t window_span = 0;
  double window_probe_seconds = 0.0;
  double setup_probe_seconds = 0.0;
  Digest digest;

  // Applies one exchange's responses to the client side; returns the
  // number of response bytes.
  const auto absorb = [&](bool in_window) {
    std::size_t bytes = 0;
    for (std::size_t i = 0; i < exchange.responses.size(); ++i) {
      const ServerMessage& response = exchange.responses[i];
      bytes += exchange.frames[i].size();
      switch (response.kind) {
        case ServerMessage::Kind::kJobAccepted:
          rush::require(response.job_id == out.jobs_submitted,
                        "perfbench: rushd assigned an unexpected job id");
          cluster.add_job(response.job_id,
                          jobs.at(static_cast<std::size_t>(out.jobs_submitted)));
          ++out.jobs_submitted;
          ++active;
          break;
        case ServerMessage::Kind::kWave:
          digest.add(exchange.frames[i]);
          ++out.waves;
          if (in_window) {
            out.predictions_per_wave.add(
                static_cast<double>(response.wave.predictions.size()));
          }
          break;
        case ServerMessage::Kind::kError:
          if (out.errors++ == 0) out.first_error = response.text;
          if (in_window) ++out.window_errors;
          break;
        case ServerMessage::Kind::kSnapshotSaved:
        case ServerMessage::Kind::kGoodbye:
        case ServerMessage::Kind::kHelloOk:
          break;
      }
    }
    // Grants after acknowledgements: a wave may place the job just accepted.
    for (const ServerMessage& response : exchange.responses) {
      if (response.kind == ServerMessage::Kind::kWave) cluster.on_wave(response.wave);
    }
    return bytes;
  };

  for (;;) {
    ClientMessage message;
    JobId finished = rush::kInvalidJob;
    bool ramp_arrival = false;
    if (close_snapshot_due) {
      close_snapshot_due = false;
      message = bare(ClientMessage::Kind::kSnapshotRequest, now);
    } else if (replacements > 0) {
      --replacements;
      message = bare(ClientMessage::Kind::kSubmitJob, now);
    } else if (phase == Phase::kWindow && shape.snapshot_every > 0 &&
               since_snapshot >= shape.snapshot_every) {
      since_snapshot = 0;
      message = bare(ClientMessage::Kind::kSnapshotRequest, now);
    } else if (phase == Phase::kRamp &&
               (!cluster.has_pending() || next_arrival <= cluster.next_time())) {
      message = bare(ClientMessage::Kind::kSubmitJob, std::max(next_arrival, now));
      next_arrival += arrivals.exponential(shape.ramp_gap);
      ramp_arrival = true;
    } else if (cluster.has_pending()) {
      message = cluster.pop(now, finished);
    } else if (active > 0) {
      // Nothing in flight but work left: the last wave is still pending in
      // the daemon (client-time waves close on a later timestamp).  A
      // snapshot request flushes it.
      if (++idle_flushes > 2) {
        out.stalled = true;
        break;
      }
      ++out.flush_requests;
      message = bare(ClientMessage::Kind::kSnapshotRequest, now);
    } else {
      break;
    }
    if (message.kind == ClientMessage::Kind::kSubmitJob) {
      message.job = jobs.at(static_cast<std::size_t>(out.jobs_submitted)).config;
    }
    if (message.kind != ClientMessage::Kind::kSnapshotRequest) idle_flushes = 0;
    now = message.time;

    const bool in_window = phase == Phase::kWindow;
    const long errors_before = out.errors;
    exchange.run(message);
    const std::size_t bytes = absorb(in_window);
    if (out.errors == errors_before) ++wal_records;
    if (in_window) {
      out.event_us.add(exchange.total_us);
      out.response_bytes.add(static_cast<double>(bytes));
      if (traced) {
        out.decode_us.add(exchange.decode_us);
        out.handle_us.add(exchange.handle_us);
        out.encode_us.add(exchange.encode_us);
      }
      active_sum += active;
      ++out.window_events;
      ++since_snapshot;
    }
    const double probed = host.maybe_probe();
    if (in_window) {
      window_probe_seconds += probed;
    } else if (phase != Phase::kDrain) {
      setup_probe_seconds += probed;
    }

    if (finished != rush::kInvalidJob) {
      --active;
      if (phase == Phase::kWindow) finished_in_window.push_back(finished);
      if (phase == Phase::kWarmup) ++warmup_finished;
    }
    if (phase == Phase::kWindow &&
        static_cast<int>(finished_in_window.size()) == shape.window_jobs) {
      phase = Phase::kDrain;
      close_snapshot_due = shape.close_snapshot;
      out.window_seconds = seconds_between(window_start, Clock::now()) - window_probe_seconds;
      out.window_scale = host.close_span(window_span);
      out.wal_window_end = wal_records;
    }
    if (finished != rush::kInvalidJob && phase != Phase::kDrain) ++replacements;
    if (ramp_arrival && ++ramp_arrivals == shape.population) phase = Phase::kWarmup;
    if (phase == Phase::kWarmup && warmup_finished == shape.warmup_jobs) {
      out.setup_seconds = seconds_between(setup_start, Clock::now()) - setup_probe_seconds;
      out.setup_scale = host.close_span(setup_span);
      window_span = host.open_span();
      phase = Phase::kWindow;
      window_start = Clock::now();
      out.wal_window_begin = wal_records;
    }
  }

  if (shape.final_snapshot) {
    exchange.run(bare(ClientMessage::Kind::kSnapshotRequest, now));
    absorb(false);
    ++wal_records;
  }
  exchange.run(bare(ClientMessage::Kind::kShutdown, now));
  absorb(false);

  out.digest = digest.hex();
  out.late_ends = cluster.late_ends();
  out.mean_active = out.window_events > 0 ? active_sum / out.window_events : 0.0;
  out.window_finished = static_cast<long>(finished_in_window.size());

  out.records = daemon.engine().job_records();
  const std::vector<rush::JobRecord>& records = out.records;
  out.drained = !out.stalled && active == 0 && !cluster.has_pending() &&
                daemon.engine().unfinished_jobs() == 0 &&
                std::all_of(records.begin(), records.end(), [](const rush::JobRecord& r) {
                  return r.completion < rush::kNever;
                });
  double utility = 0.0;
  for (const JobId id : finished_in_window) {
    const rush::JobRecord& record = records[static_cast<std::size_t>(id)];
    rush::require(record.id == id, "perfbench: job records are not dense by id");
    utility += record.utility;
  }
  out.mean_utility =
      finished_in_window.empty() ? 0.0 : utility / static_cast<double>(finished_in_window.size());
  out.wal_complete = rush::read_event_log(wal_path).size() == wal_records;
}

/// Times kRecoveries recoveries of `config`'s files in a fresh
/// rush_perfbench process, as a crashed rushd recovers in a new one.  In the
/// process whose heap a whole session had churned, recovery time varied by up
/// to 1.6x from session to session, which a few sessions per run cannot
/// average out.
Samples recover_in_fresh_process(const rush::DaemonConfig& config) {
  int fds[2];
  rush::require(pipe(fds) == 0, "perfbench: pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<std::string> args = {"rush_perfbench", "--recover-wal", config.event_log_path,
                                   "--recover-snapshot", config.snapshot_path};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int spawned =
      posix_spawn(&pid, "/proc/self/exe", &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string text;
  char buffer[4096];
  for (ssize_t n; (n = read(fds[0], buffer, sizeof buffer)) > 0;) {
    text.append(buffer, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  const bool exited = spawned == 0 && waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
                      WEXITSTATUS(status) == 0;
  rush::require(exited, "perfbench: the recovery process failed");
  Samples seconds;
  std::istringstream in(text);
  for (double value = 0.0; in >> value;) seconds.add(value);
  rush::require(seconds.size() == static_cast<std::size_t>(kRecoveries),
                "perfbench: the recovery process reported too few timings");
  return seconds;
}

}  // namespace

rush::DaemonConfig session_config(const std::string& wal_path, const std::string& snapshot_path) {
  rush::DaemonConfig config;
  config.capacity = kCapacity;
  config.event_log_path = wal_path;
  config.snapshot_path = snapshot_path;
  config.client_time = true;
  return config;
}

std::vector<double> time_recoveries(const rush::DaemonConfig& config, int count) {
  std::vector<double> seconds;
  for (int i = 0; i < count; ++i) {
    rush::RushDaemon recovered(config);
    const Clock::time_point start = Clock::now();
    recovered.recover();
    seconds.push_back(seconds_between(start, Clock::now()));
  }
  return seconds;
}

SessionResult run_session(const RushdShape& shape, std::uint64_t seed,
                          const std::string& wal_path, const std::string& snapshot_path,
                          bool traced, HostSpeed& host) {
  SessionResult out;
  const std::size_t setup_span = host.open_span();
  const Clock::time_point setup_start = Clock::now();
  std::remove(wal_path.c_str());
  std::remove(snapshot_path.c_str());

  const rush::DaemonConfig config = session_config(wal_path, snapshot_path);
  drive_session(shape, seed, config, traced, host, setup_span, setup_start, out);

  // Crash recovery on the session's files: newest snapshot plus WAL tail.
  // Checked here, timed in a fresh process.
  {
    rush::RushDaemon recovered(config);
    out.recover_replayed = recovered.recover();
    out.recovered_records_match = same_records(out.records, recovered.engine().job_records());
  }
  const std::size_t recovery_span = host.open_span();
  out.recovery_seconds = recover_in_fresh_process(config);
  out.recovery_scale = host.close_span(recovery_span);
  return out;
}

}  // namespace perfbench
