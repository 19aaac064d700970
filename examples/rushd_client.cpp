// rushd_client — submit jobs to a running rushd and stream back its
// per-wave grants and completion-time predictions (README "Running rushd").
//
//   build/examples/rushd_client [options]
//     --socket PATH        connect over a Unix socket
//     --tcp PORT           connect over loopback TCP instead
//     --jobs FILE          XML job configuration            (examples/jobs.xml)
//     --capacity N         containers (offline modes)       (6)
//     --record-reference F run the in-process simulator on --jobs and write
//                          its event log to F (no daemon needed)
//     --play F             drive the daemon with a recorded event log; the
//                          daemon must run with --client-time
//     --replay-wal F       replay a daemon WAL offline through the engine
//     --scheduler NAME     replay's scheduler: RUSH | EDF | FIFO | RRH | Fair (RUSH)
//     --speculation        replay with backup attempts, as the log's run had (off)
//     --trace F            write the run's trace CSV (reference/replay modes)
//
// Default mode connects, submits every job from the XML file, and acts as
// the cluster: each streamed grant is acknowledged with a task completion
// (runtime = the job's task-seconds), so the whole session fast-forwards
// while printing the scheduler's eta_i predictions per wave.
//
// The CI smoke session (scripts/daemon_smoke.sh) chains the other modes:
// record a reference log, --play it into rushd --client-time, then
// --replay-wal the daemon's own WAL and diff the traces — byte-identical
// by the engine's determinism guarantee (DESIGN.md §5j).  A log does not
// record its scheduler or speculation setting, so --replay-wal takes them
// with `simulate`'s names and defaults: a `simulate --scheduler FIFO
// --speculation --event-log F` run replays with the same two flags (and
// --capacity 48, the paper testbed's).

#include <sys/socket.h>
#include <sys/un.h>
#include <netinet/in.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/config/job_config.h"
#include "src/config/xml.h"
#include "src/core/rush_scheduler.h"
#include "src/daemon/protocol.h"
#include "src/engine/event_log.h"
#include "src/engine/replay.h"
#include "src/engine/simulation.h"
#include "src/experiments/experiment.h"
#include "src/metrics/trace.h"

using namespace rush;

namespace {

struct Options {
  std::optional<std::string> socket_path;
  std::optional<int> tcp_port;
  std::string jobs_path = "examples/jobs.xml";
  int capacity = 6;
  std::optional<std::string> record_reference;
  std::optional<std::string> play;
  std::optional<std::string> replay_wal;
  std::string scheduler = "RUSH";
  bool speculation = false;
  std::optional<std::string> trace_path;
};

Options parse_options(int argc, char** argv) {
  Options opt;
  const auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << argv[i] << '\n';
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--socket") {
      opt.socket_path = need_value(i);
    } else if (flag == "--tcp") {
      opt.tcp_port = std::atoi(need_value(i).c_str());
    } else if (flag == "--jobs") {
      opt.jobs_path = need_value(i);
    } else if (flag == "--capacity") {
      opt.capacity = std::atoi(need_value(i).c_str());
    } else if (flag == "--record-reference") {
      opt.record_reference = need_value(i);
    } else if (flag == "--play") {
      opt.play = need_value(i);
    } else if (flag == "--replay-wal") {
      opt.replay_wal = need_value(i);
    } else if (flag == "--scheduler") {
      opt.scheduler = need_value(i);
    } else if (flag == "--speculation") {
      opt.speculation = true;
    } else if (flag == "--trace") {
      opt.trace_path = need_value(i);
    } else {
      std::cerr << "unknown option " << flag << " (see file header for usage)\n";
      std::exit(2);
    }
  }
  return opt;
}

/// Jobs from the XML file as simulation specs, sorted by arrival so the
/// simulator's submission-order ids equal the daemon's receipt-order ids.
std::vector<JobSpec> load_specs(const std::string& path) {
  std::vector<JobSpec> specs;
  for (const JobConfig& config : parse_jobs_config(parse_xml_file(path))) {
    JobSpec spec;
    spec.name = config.name;
    spec.arrival = config.arrival;
    spec.budget = config.budget;
    spec.priority = config.priority;
    spec.beta = config.beta;
    spec.utility_kind = config.utility_kind;
    spec.sensitivity = config.sensitivity;
    for (int m = 0; m < config.maps; ++m) {
      spec.tasks.push_back(TaskSpec{config.task_seconds, false});
    }
    for (int r = 0; r < config.reduces; ++r) {
      spec.tasks.push_back(TaskSpec{config.task_seconds, true});
    }
    specs.push_back(std::move(spec));
  }
  std::stable_sort(specs.begin(), specs.end(),
                   [](const JobSpec& a, const JobSpec& b) { return a.arrival < b.arrival; });
  return specs;
}

struct RecordingSink final : EngineSink {
  explicit RecordingSink(const std::string& path) : log(path) {}
  void on_event(const EngineEvent& event) override { log.append(event); }
  EventLogWriter log;
};

/// --record-reference: deterministic in-process run (no noise, no failures,
/// unit-speed containers) whose event log a --client-time daemon session
/// reproduces exactly.
int record_reference(const Options& opt) {
  EngineSimulationConfig config;
  config.nodes = homogeneous_nodes(1, opt.capacity);
  config.runtime_noise_sigma = 0.0;
  config.task_failure_probability = 0.0;
  config.seed = 1;
  RushScheduler scheduler;
  EngineSimulation simulation(config, scheduler);
  TraceRecorder trace;
  simulation.set_observer(&trace);
  RecordingSink sink(*opt.record_reference);
  simulation.set_sink(&sink);
  for (JobSpec spec : load_specs(opt.jobs_path)) simulation.submit(std::move(spec));
  const RunResult result = simulation.run();
  if (opt.trace_path) trace.write_csv(*opt.trace_path);
  std::cout << "reference: " << result.jobs.size() << " jobs, "
            << sink.log.records_written() << " events -> " << *opt.record_reference
            << ", makespan " << result.makespan << " s\n";
  return result.completed ? 0 : 1;
}

/// --replay-wal: re-derive a session's full trace from its write-ahead log.
int replay_wal(const Options& opt) {
  const std::vector<EngineEvent> events = read_event_log(*opt.replay_wal);
  const std::unique_ptr<Scheduler> scheduler = make_named_scheduler(opt.scheduler);
  EngineConfig config{opt.capacity, false};
  config.speculation.enabled = opt.speculation;
  TraceRecorder trace;
  const RunResult result = replay_events(config, *scheduler, events, &trace);
  if (opt.trace_path) trace.write_csv(*opt.trace_path);
  std::cout << "replayed " << events.size() << " events: " << result.jobs.size()
            << " jobs, " << result.assignments << " assignments, makespan "
            << result.makespan << " s\n";
  return 0;
}

// ---------- socket plumbing ----------

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int connect_tcp(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool write_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + sent, bytes.size() - sent);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

class Connection {
 public:
  explicit Connection(int fd) : fd_(fd) {}
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool send(const ClientMessage& message) { return write_all(fd_, encode_frame(message)); }

  /// Blocks for the next server message; false on EOF / protocol error.
  bool receive(ServerMessage& message) {
    std::string body;
    while (!buffer_.next(body)) {
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return false;
      buffer_.feed(std::string_view(chunk, static_cast<std::size_t>(n)));
    }
    message = decode_server_message(body);
    return true;
  }

 private:
  int fd_;
  FrameBuffer buffer_;
};

/// Opens the session: announce our kProtocolVersion, await the daemon's
/// kHelloOk.  A version-skewed daemon answers with kError and hangs up.
bool handshake(Connection& connection) {
  ClientMessage hello;
  hello.kind = ClientMessage::Kind::kHello;
  hello.protocol_version = kProtocolVersion;
  if (!connection.send(hello)) {
    std::cerr << "rushd_client: connection lost during handshake\n";
    return false;
  }
  ServerMessage reply;
  if (!connection.receive(reply)) {
    std::cerr << "rushd_client: daemon hung up during handshake\n";
    return false;
  }
  if (reply.kind != ServerMessage::Kind::kHelloOk) {
    std::cerr << "rushd_client: handshake refused (" << server_kind_name(reply.kind)
              << (reply.text.empty() ? "" : ": " + reply.text) << ")\n";
    return false;
  }
  return true;
}

void print_wave(const EngineWave& wave) {
  std::cout << "wave " << wave.index << " @ " << wave.now << " s: "
            << wave.assignments.size() << " grant(s), free "
            << wave.free_before << " -> " << wave.free_after << '\n';
  for (const EnginePrediction& p : wave.predictions) {
    std::cout << "  job " << p.id << " eta ";
    if (p.impossible) {
      std::cout << "impossible (target " << p.target_completion << " s)";
    } else {
      std::cout << p.eta << " s (target " << p.target_completion << " s, wants "
                << p.desired_containers << " containers)";
    }
    std::cout << '\n';
  }
}

/// --play: feed a recorded event log to a --client-time daemon verbatim.
/// Completions and frees come from the recording, so the daemon re-derives
/// the reference schedule decision-for-decision.
int play_recording(Connection& connection, const Options& opt) {
  const std::vector<EngineEvent> events = read_event_log(*opt.play);
  std::size_t waves = 0;
  for (const EngineEvent& event : events) {
    ClientMessage message;
    message.time = event.time;
    switch (event.kind) {
      case EngineEvent::Kind::kJobSubmitted:
        message.kind = ClientMessage::Kind::kSubmitJob;
        message.job = event.job;
        break;
      case EngineEvent::Kind::kTaskFinished:
        message.kind = ClientMessage::Kind::kTaskFinished;
        message.container = event.container;
        message.runtime = event.runtime;
        break;
      case EngineEvent::Kind::kContainerFreed:
        message.kind = ClientMessage::Kind::kContainerFreed;
        message.container = event.container;
        message.wasted = event.wasted;
        break;
      case EngineEvent::Kind::kSnapshotRequested:
        message.kind = ClientMessage::Kind::kSnapshotRequest;
        break;
    }
    if (!connection.send(message)) {
      std::cerr << "rushd_client: connection lost\n";
      return 1;
    }
    // One round-trip per submission keeps acks readable; waves stream back
    // asynchronously and are drained before shutdown.
    if (message.kind == ClientMessage::Kind::kSubmitJob) {
      ServerMessage response;
      if (!connection.receive(response)) return 1;
      if (response.kind == ServerMessage::Kind::kJobAccepted) {
        std::cout << "accepted job " << response.job_id << " @ " << response.time
                  << " s\n";
      } else if (response.kind == ServerMessage::Kind::kError) {
        std::cerr << "rushd error: " << response.text << '\n';
        return 1;
      } else if (response.kind == ServerMessage::Kind::kWave) {
        ++waves;
      }
    }
  }
  ClientMessage shutdown;
  shutdown.kind = ClientMessage::Kind::kShutdown;
  shutdown.time = events.empty() ? 0.0 : events.back().time;
  if (!connection.send(shutdown)) return 1;
  ServerMessage response;
  while (connection.receive(response)) {
    if (response.kind == ServerMessage::Kind::kWave) ++waves;
    if (response.kind == ServerMessage::Kind::kGoodbye) break;
    if (response.kind == ServerMessage::Kind::kError) {
      std::cerr << "rushd error: " << response.text << '\n';
      return 1;
    }
  }
  std::cout << "played " << events.size() << " events; daemon streamed " << waves
            << " wave(s)\n";
  return 0;
}

/// Default mode: live session.  Submit the XML jobs, then act as the
/// cluster — every grant is completed with the job's nominal task runtime —
/// until all submitted work is done.
int live_session(Connection& connection, const Options& opt) {
  const std::vector<JobSpec> specs = load_specs(opt.jobs_path);
  std::map<JobId, Seconds> task_seconds;
  long remaining_tasks = 0;

  // Act as the cluster for one wave: every grant is completed with the
  // job's nominal task runtime.
  const auto complete_wave = [&](const EngineWave& wave) -> bool {
    print_wave(wave);
    for (const EngineAssignment& grant : wave.assignments) {
      ClientMessage finished;
      finished.kind = ClientMessage::Kind::kTaskFinished;
      finished.container = grant.container;
      finished.runtime = task_seconds[grant.job];
      if (!connection.send(finished)) return false;
      --remaining_tasks;
    }
    return true;
  };

  for (const JobSpec& spec : specs) {
    ClientMessage submit;
    submit.kind = ClientMessage::Kind::kSubmitJob;
    for (const JobConfig& config : parse_jobs_config(parse_xml_file(opt.jobs_path))) {
      if (config.name == spec.name) submit.job = config;
    }
    if (!connection.send(submit)) return 1;
    // Under wall-clock stamping the daemon may flush the previous
    // arrival's dispatch wave before acking this submit (arrivals are
    // flush-then-dispatch), so drain waves until the ack arrives.
    ServerMessage response;
    for (;;) {
      if (!connection.receive(response)) return 1;
      if (response.kind != ServerMessage::Kind::kWave) break;
      if (!complete_wave(response.wave)) return 1;
    }
    if (response.kind != ServerMessage::Kind::kJobAccepted) {
      std::cerr << "rushd rejected " << spec.name << ": " << response.text << '\n';
      return 1;
    }
    std::cout << "submitted " << spec.name << " as job " << response.job_id << '\n';
    task_seconds[response.job_id] = submit.job.task_seconds;
    remaining_tasks += submit.job.maps + submit.job.reduces;
  }

  ServerMessage message;
  while (remaining_tasks > 0 && connection.receive(message)) {
    if (message.kind == ServerMessage::Kind::kError) {
      std::cerr << "rushd error: " << message.text << '\n';
      return 1;
    }
    if (message.kind != ServerMessage::Kind::kWave) continue;
    if (!complete_wave(message.wave)) return 1;
  }

  ClientMessage shutdown;
  shutdown.kind = ClientMessage::Kind::kShutdown;
  if (!connection.send(shutdown)) return 1;
  while (connection.receive(message)) {
    if (message.kind == ServerMessage::Kind::kWave) print_wave(message.wave);
    if (message.kind == ServerMessage::Kind::kGoodbye) break;
  }
  std::cout << "all jobs complete; daemon said goodbye\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  try {
    if (opt.record_reference) return record_reference(opt);
    if (opt.replay_wal) return replay_wal(opt);

    int fd = -1;
    if (opt.socket_path) {
      fd = connect_unix(*opt.socket_path);
    } else if (opt.tcp_port) {
      fd = connect_tcp(*opt.tcp_port);
    } else {
      std::cerr << "need --socket PATH or --tcp PORT (or an offline mode)\n";
      return 2;
    }
    if (fd < 0) {
      std::cerr << "rushd_client: cannot connect\n";
      return 1;
    }
    Connection connection(fd);
    if (!handshake(connection)) return 1;
    return opt.play ? play_recording(connection, opt) : live_session(connection, opt);
  } catch (const std::exception& error) {
    std::cerr << "rushd_client: " << error.what() << '\n';
    return 1;
  }
}
