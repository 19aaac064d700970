// rush_perfbench — the repository's one benchmark command (see
// perfbench/README.md and BENCHMARK.json).
//
//   rush_perfbench --workload <rushd-dense|rushd-churn|sim-fair> --seed <n>
//                  --seconds <s> --trace <0|1> [--workdir <dir>] [--tiny]
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs one traced
// session and replays its WAL for the per-layer metrics.  The last stdout
// line is the result object; the line before it is the detail object
// (sample counts, check outcomes, the stream digest).  Exits 1 when a
// correctness check fails, 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "perfbench/src/common.h"
#include "perfbench/src/session.h"
#include "perfbench/src/sim_fair.h"
#include "perfbench/src/trace.h"
#include "src/baselines/fair_scheduler.h"
#include "src/engine/event_log.h"
#include "src/engine/replay.h"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/perfbench-run";
  /// Recovery-timing mode (run by the benchmark itself, see session.cc):
  /// recovers the daemon of these files kRecoveries times and prints each
  /// recover()'s seconds, one a line.
  std::string recover_wal;
  std::string recover_snapshot;
  /// Smoke-test sizes: every code path, a fraction of a second per session.
  bool tiny = false;
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "rush_perfbench: %s\nusage: rush_perfbench --workload "
               "<rushd-dense|rushd-churn|sim-fair> --seed <n> --seconds <s> "
               "--trace <0|1> [--workdir <dir>] [--tiny]\n",
               error.c_str());
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      opt.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (flag == "--workdir") {
        opt.workdir = value;
      } else if (flag == "--recover-wal") {
        opt.recover_wal = value;
      } else if (flag == "--recover-snapshot") {
        opt.recover_snapshot = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!opt.recover_wal.empty()) return opt;
  if (!have_workload) usage("--workload is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

/// Independent seed of session `index` within a run.
std::uint64_t session_seed(std::uint64_t seed, int index) {
  rush::Rng rng(seed ^ (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(index + 1)));
  return rng.next();
}

// Workload shapes.  Every cluster has 48 containers; every rushd load is a
// closed loop with one client.

/// ~200 simultaneously active jobs: every event replans over the whole
/// active set and every wave frame carries ~200 predictions.  Ramp and
/// warm-up (one turnover of the population) cost seconds, so sessions are
/// few and their windows long.
RushdShape dense_shape(bool tiny) {
  RushdShape shape;
  shape.population = tiny ? 20 : 200;
  shape.warmup_jobs = tiny ? 5 : 150;
  shape.window_jobs = tiny ? 10 : 600;
  shape.ramp_gap = 2.0;
  shape.final_snapshot = true;
  return shape;
}

/// ~12 short jobs active, 2000 per session, a snapshot request every 250
/// window events: planning is cheap, so framing, the WAL, engine apply and
/// snapshots of the job table, which grows with every job ever submitted,
/// dominate.  Snapshots stay under 1% of events: their file I/O swings far
/// more with host load than computation does, and a p99 set by them was
/// not repeatable.
RushdShape churn_shape(bool tiny) {
  RushdShape shape;
  shape.population = tiny ? 4 : 12;
  shape.window_jobs = tiny ? 40 : 2000;
  shape.ramp_gap = 1.0;
  shape.snapshot_every = tiny ? 10 : 250;
  shape.close_snapshot = true;
  return shape;
}

/// A backlog of thousands of jobs under Fair, arriving every 2 s on
/// average: no planner at all.
SimShape fair_shape(bool tiny) {
  SimShape shape;
  shape.jobs = tiny ? 100 : 3000;
  shape.mix.mean_interarrival = 2.0;
  return shape;
}

/// Sessions (rushd) and simulations (sim-fair) whose jobs make up the mean
/// utility; every run completes at least these many, so it is fixed per seed.
constexpr int kUtilitySessions = 3;
constexpr int kUtilitySimulations = 8;

/// sim-fair times one recovery after every this many simulations.
constexpr int kRecoveryEvery = 4;

/// Window events a run needs so that p99 has ten samples beyond it.
long min_events(const Options& opt) { return opt.tiny ? 1 : 1000; }

/// Timings of a run: as measured (raw), or scaled span by span to the
/// reference host (HostSpeed).
struct Timings {
  Samples event_us;
  double seconds = 0.0;
  Samples setup_s;
  Samples recovery_s;
};

/// What a run measured.
struct Measured {
  Timings raw;
  Timings scaled;
  long events = 0;
  double mean_utility = 0.0;
  std::size_t utility_jobs = 0;

  /// Adds one session's or simulation's window, each span with its factor.
  void add_window(const Samples& event_us, double seconds, double scale) {
    raw.event_us.append(event_us);
    scaled.event_us.append(event_us, scale);
    raw.seconds += seconds;
    scaled.seconds += seconds * scale;
  }
  void add_setup(double seconds, double scale) {
    raw.setup_s.add(seconds);
    scaled.setup_s.add(seconds * scale);
  }
  void add_recovery(const Samples& seconds, double scale) {
    raw.recovery_s.append(seconds);
    scaled.recovery_s.append(seconds, scale);
  }
};

/// The timed end-to-end metrics; raw ones (`prefix` "raw.") go to the
/// detail line only.
void timing_metrics(Report& report, const Timings& t, long events, const std::string& prefix) {
  const bool detail_only = !prefix.empty();
  const std::size_t samples = t.event_us.size();
  report.metric(prefix + "event_p50_us", t.event_us.quantile(0.5), "us", samples, detail_only);
  report.metric(prefix + "event_p99_us", t.event_us.quantile(0.99), "us", samples, detail_only);
  report.metric(prefix + "events_per_s", static_cast<double>(events) / t.seconds, "1/s",
                static_cast<std::size_t>(events), detail_only);
  report.metric(prefix + "recovery_s", t.recovery_s.quantile(0.5), "s", t.recovery_s.size(),
                detail_only);
  report.metric(prefix + "setup_s", t.setup_s.quantile(0.5), "s", t.setup_s.size(), detail_only);
}

void end_to_end(Report& report, const Measured& m, const HostSpeed& host, const Options& opt) {
  report.check(opt.tiny || m.scaled.event_us.beyond(0.99) >= 10,
               "at least ten samples beyond p99");
  timing_metrics(report, m.scaled, m.events, "");
  report.metric("mean_utility", m.mean_utility, "utility", m.utility_jobs);
  report.metric("peak_rss_mb", peak_rss_mb(), "MiB", 1);
  // Unscaled figures and the reference kernel, for the record.
  timing_metrics(report, m.raw, m.events, "raw.");
  report.metric("host.kernel_us", host.kernel_us(), "us", host.probes(), true);
}

void session_checks(Report& report, const SessionResult& r) {
  report.check(r.errors == 0, "no kError on valid traffic");
  if (!r.first_error.empty()) report.info("first_error", r.first_error);
  report.check(!r.stalled, "session never stalls");
  report.check(r.drained, "every submitted job drains");
  report.check(r.wal_complete, "WAL holds every accepted event");
  report.check(r.recovered_records_match, "recovered job records equal the session's");
}

void run_rushd(const RushdShape& shape, const Options& opt, const std::string& dir,
               Report& report) {
  const std::string wal = dir + "/session.wal";
  const std::string snapshot = dir + "/session.snapshot";
  report.info("target_active_jobs", std::to_string(shape.population));
  report.info("load", "closed loop, 1 client, 48 containers");
  HostSpeed host;

  if (!opt.trace) {
    Measured m;
    long window_errors = 0;
    double active_sum = 0.0;
    SessionResult first;
    double utility = 0.0;
    int sessions = 0;
    do {
      SessionResult r = run_session(shape, session_seed(opt.seed, sessions), wal, snapshot,
                                    /*traced=*/false, host);
      session_checks(report, r);
      m.add_window(r.event_us, r.window_seconds, r.window_scale);
      m.add_setup(r.setup_seconds, r.setup_scale);
      m.add_recovery(r.recovery_seconds, r.recovery_scale);
      m.events += r.window_events;
      window_errors += r.window_errors;
      active_sum += r.mean_active * static_cast<double>(r.window_events);
      if (sessions < kUtilitySessions) {
        utility += r.mean_utility * static_cast<double>(r.window_finished);
        m.utility_jobs += static_cast<std::size_t>(r.window_finished);
      }
      if (sessions++ == 0) first = std::move(r);
    } while (m.raw.seconds < opt.seconds || m.events < min_events(opt) ||
             sessions < kUtilitySessions);

    m.mean_utility = utility / static_cast<double>(m.utility_jobs);
    report.attempted = m.events;
    report.failed = window_errors;
    end_to_end(report, m, host, opt);
    report.metric("error_frac", static_cast<double>(window_errors) / m.events, "frac",
                  static_cast<std::size_t>(m.events), /*detail_only=*/true);
    report.info("digest", first.digest);
    report.info("sessions", std::to_string(sessions));
    report.info("mean_active_jobs", std::to_string(active_sum / m.events));
    report.info("first_session_waves", std::to_string(first.waves));
    report.info("first_session_late_ends", std::to_string(first.late_ends));
    report.info("first_session_flush_requests", std::to_string(first.flush_requests));
    return;
  }

  const SessionResult session = run_session(shape, session_seed(opt.seed, 0), wal, snapshot,
                                            /*traced=*/true, host);
  session_checks(report, session);
  const std::vector<rush::EngineEvent> events = rush::read_event_log(wal);
  const ReplayResult replay = replay_wal(events, SchedulerKind::kRush,
                                         session.wal_window_begin, session.wal_window_end, dir);
  report.check(replay.untraced_digest == session.digest && replay.untraced_waves == session.waves,
               "untraced WAL replay reproduces the session's waves");
  report.check(replay.traced_digest == session.digest && replay.traced_waves == session.waves,
               "traced WAL replay reproduces the session's waves");
  report.check(same_records(replay.records, session.records),
               "replayed job records equal the session's");
  report.attempted = session.window_events;
  report.failed = session.window_errors;
  report.info("digest", session.digest);
  report.info("mean_active_jobs", std::to_string(session.mean_active));
  report_layers(report, &session, replay, SchedulerKind::kRush, session.recover_replayed);
}

void run_sim(const SimShape& shape, const Options& opt, const std::string& dir,
             Report& report) {
  const std::string wal = dir + "/simulation.wal";
  report.info("backlog_jobs", std::to_string(shape.jobs));
  report.info("load", "virtual-clock simulation, 48 containers");
  HostSpeed host;

  if (!opt.trace) {
    Measured m;
    double active_sum = 0.0;
    double utility = 0.0;
    SimResult first;
    int simulations = 0;
    // Recovery: cold replay of the event log of the first simulation,
    // rerun untimed with the WAL and the wave digest on; one recovery every
    // kRecoveryEvery simulations spreads the samples over the run.
    const SimResult logged =
        run_simulation(shape, session_seed(opt.seed, 0), wal, /*digest=*/true, nullptr);
    const auto recover = [&] {
      const std::size_t span = host.open_span();
      const Clock::time_point start = Clock::now();
      rush::FairScheduler scheduler;
      const rush::RunResult recovered = rush::replay_events(
          rush::EngineConfig{kCapacity, /*audit_view=*/false}, scheduler,
          rush::read_event_log(wal));
      Samples seconds;
      seconds.add(seconds_between(start, Clock::now()));
      m.add_recovery(seconds, host.close_span(span));
      report.check(same_records(recovered.jobs, logged.result.jobs),
                   "recovered job records equal the session's");
    };
    do {
      SimResult r =
          run_simulation(shape, session_seed(opt.seed, simulations), "", /*digest=*/false, &host);
      report.check(r.result.completed, "every submitted job drains");
      m.add_window(r.event_us, r.run_seconds, r.scale);
      m.add_setup(r.setup_seconds, r.scale);
      m.events += r.events;
      active_sum += r.mean_active * static_cast<double>(r.events);
      if (simulations < kUtilitySimulations) {
        for (const rush::JobRecord& record : r.result.jobs) utility += record.utility;
        m.utility_jobs += r.result.jobs.size();
      }
      if (simulations++ == 0) first = std::move(r);
      if (simulations % kRecoveryEvery == 1) recover();
    } while (m.raw.seconds < opt.seconds || m.events < min_events(opt) ||
             simulations < kUtilitySimulations);
    m.mean_utility = utility / static_cast<double>(m.utility_jobs);
    // Timed simulations take no digest, so an untimed rerun checks the wave
    // stream; the timed first simulation must agree on the job records.
    const SimResult rerun =
        run_simulation(shape, session_seed(opt.seed, 0), "", /*digest=*/true, nullptr);
    report.check(logged.digest == rerun.digest &&
                     same_records(logged.result.jobs, rerun.result.jobs) &&
                     same_records(logged.result.jobs, first.result.jobs),
                 "simulation is deterministic for its seed");

    report.attempted = m.events;
    end_to_end(report, m, host, opt);
    report.metric("error_frac", 0.0, "frac", static_cast<std::size_t>(m.events),
                  /*detail_only=*/true);
    report.info("digest", logged.digest);
    report.info("simulations", std::to_string(simulations));
    report.info("mean_active_jobs", std::to_string(active_sum / m.events));
    return;
  }

  const SimResult logged =
      run_simulation(shape, session_seed(opt.seed, 0), wal, /*digest=*/true, nullptr);
  report.check(logged.result.completed, "every submitted job drains");
  const std::vector<rush::EngineEvent> events = rush::read_event_log(wal);
  report.check(static_cast<long>(events.size()) == logged.events,
               "WAL holds every accepted event");
  const ReplayResult replay = replay_wal(events, SchedulerKind::kFair, 0, events.size(), dir);
  report.check(replay.untraced_digest == logged.digest && replay.untraced_waves == logged.waves,
               "untraced WAL replay reproduces the session's waves");
  report.check(replay.traced_digest == logged.digest && replay.traced_waves == logged.waves,
               "traced WAL replay reproduces the session's waves");
  report.check(same_records(replay.records, logged.result.jobs),
               "replayed job records equal the session's");
  report.attempted = logged.events;
  report.info("digest", logged.digest);
  report.info("mean_active_jobs", std::to_string(logged.mean_active));
  report_layers(report, nullptr, replay, SchedulerKind::kFair, events.size());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse_options(argc, argv);
  if (!opt.recover_wal.empty()) {
    const rush::DaemonConfig config = session_config(opt.recover_wal, opt.recover_snapshot);
    for (const double seconds : time_recoveries(config, kRecoveries)) {
      std::printf("%.17g\n", seconds);
    }
    return 0;
  }
  if (opt.workload != "rushd-dense" && opt.workload != "rushd-churn" &&
      opt.workload != "sim-fair") {
    usage("unknown workload " + opt.workload);
  }

  const std::string dir =
      opt.workdir + "/" + opt.workload + "-" + std::to_string(static_cast<long>(getpid()));
  Report report;
  int status = 0;
  try {
    std::filesystem::create_directories(dir);
    if (opt.workload == "rushd-dense") {
      run_rushd(dense_shape(opt.tiny), opt, dir, report);
    } else if (opt.workload == "rushd-churn") {
      run_rushd(churn_shape(opt.tiny), opt, dir, report);
    } else {
      run_sim(fair_shape(opt.tiny), opt, dir, report);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "rush_perfbench: %s\n", error.what());
    status = 1;
  }
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
  if (status != 0) return status;

  std::printf("%s\n%s\n", report.detail_json(opt.workload, opt.trace).c_str(),
              report.result_json().c_str());
  return report.correct() ? 0 : 1;
}
