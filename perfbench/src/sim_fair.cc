#include "perfbench/src/sim_fair.h"

#include <memory>

#include "src/baselines/fair_scheduler.h"
#include "src/cluster/node.h"
#include "src/daemon/protocol.h"
#include "src/engine/event_log.h"
#include "src/engine/simulation.h"

namespace perfbench {

namespace {

class SimSink final : public rush::EngineSink {
 public:
  SimSink(const rush::SchedulerEngine& engine, SimResult& out, const std::string& wal_path,
          bool digest, HostSpeed* host)
      : engine_(engine), out_(out), host_(host), digest_waves_(digest) {
    if (!wal_path.empty()) log_ = std::make_unique<rush::EventLogWriter>(wal_path);
  }

  void on_event(const rush::EngineEvent& event) override {
    const Clock::time_point now = Clock::now();
    if (out_.events > 0) out_.event_us.add(micros_between(last_, now));
    last_ = now;
    ++out_.events;
    active_sum_ += engine_.unfinished_jobs();
    if (log_ != nullptr) log_->append(event);
    if (host_ != nullptr) {
      const double probed = host_->maybe_probe();
      if (probed > 0.0) {
        probe_seconds_ += probed;
        last_ = Clock::now();  // the probe is not part of the next gap
      }
    }
  }

  void on_wave(const rush::EngineWave& wave) override {
    ++out_.waves;
    if (!digest_waves_) return;
    rush::ServerMessage message;
    message.kind = rush::ServerMessage::Kind::kWave;
    message.time = wave.now;
    message.wave = wave;
    digest_.add(rush::encode_frame(message));
  }

  double active_sum() const { return active_sum_; }
  double probe_seconds() const { return probe_seconds_; }
  const Digest& digest() const { return digest_; }

 private:
  const rush::SchedulerEngine& engine_;
  SimResult& out_;
  HostSpeed* host_;
  bool digest_waves_;
  std::unique_ptr<rush::EventLogWriter> log_;
  Clock::time_point last_;
  double active_sum_ = 0.0;
  double probe_seconds_ = 0.0;
  Digest digest_;
};

}  // namespace

SimResult run_simulation(const SimShape& shape, std::uint64_t seed,
                         const std::string& wal_path, bool digest, HostSpeed* host) {
  SimResult out;
  const std::size_t span = host != nullptr ? host->open_span() : 0;
  const Clock::time_point setup_start = Clock::now();
  rush::Rng seeds(seed);
  JobStream jobs(shape.mix, seeds.next(), shape.physics);
  jobs.generate(static_cast<std::size_t>(shape.jobs));

  rush::EngineSimulationConfig config;
  config.nodes = rush::homogeneous_nodes(kNodes, kCapacity / kNodes);
  config.runtime_noise_sigma = shape.physics.noise_sigma;
  config.task_failure_probability = shape.physics.failure_probability;
  config.seed = seeds.next();
  config.audit_view = false;
  rush::FairScheduler scheduler;
  rush::EngineSimulation simulation(config, scheduler);
  SimSink sink(simulation.engine(), out, wal_path, digest, host);
  simulation.set_sink(&sink);
  for (int j = 0; j < shape.jobs; ++j) simulation.submit(jobs.at(static_cast<std::size_t>(j)).spec);
  const Clock::time_point run_start = Clock::now();
  out.setup_seconds = seconds_between(setup_start, run_start);
  out.result = simulation.run();
  out.run_seconds = seconds_between(run_start, Clock::now()) - sink.probe_seconds();
  if (host != nullptr) out.scale = host->close_span(span);
  out.mean_active = out.events > 0 ? sink.active_sum() / out.events : 0.0;
  if (digest) out.digest = sink.digest().hex();
  return out;
}

}  // namespace perfbench
