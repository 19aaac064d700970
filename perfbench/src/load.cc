#include "perfbench/src/load.h"

#include <algorithm>

#include "perfbench/src/common.h"
#include "src/cluster/node.h"
#include "src/common/error.h"
#include "src/experiments/experiment.h"

namespace perfbench {

namespace {

/// The submission-time view of a generated job, as EngineSimulation builds
/// it: task counts and the mean nominal runtime, not the per-task physics.
rush::JobConfig submitted_config(const rush::JobSpec& spec) {
  rush::JobConfig config;
  config.name = spec.name;
  config.budget = spec.budget;
  config.priority = spec.priority;
  config.beta = spec.beta;
  config.utility_kind = spec.utility_kind;
  config.sensitivity = spec.sensitivity;
  config.maps = 0;
  config.reduces = 0;
  for (const rush::TaskSpec& task : spec.tasks) {
    (task.is_reduce ? config.reduces : config.maps) += 1;
  }
  config.task_seconds = spec.total_nominal_work() / spec.task_count();
  return config;
}

}  // namespace

JobStream::JobStream(JobMix mix, std::uint64_t seed, Physics physics) {
  config_.num_jobs = 0;
  config_.min_gigabytes = mix.min_gigabytes;
  config_.max_gigabytes = mix.max_gigabytes;
  config_.mean_interarrival = mix.mean_interarrival;
  // Budgets as the experiments set them: benchmarked on the whole cluster
  // at the expected noise slowdown.
  config_.benchmark_capacity = kCapacity;
  config_.benchmark_speed = rush::budget_calibration(
      rush::homogeneous_nodes(kNodes, kCapacity / kNodes), physics.noise_sigma);
  config_.seed = seed;
}

void JobStream::generate(std::size_t count) {
  if (jobs_.size() >= count) return;
  config_.num_jobs = static_cast<int>(std::max(count, 2 * jobs_.size()));
  std::vector<rush::JobSpec> specs = rush::generate_workload(config_);
  for (std::size_t k = jobs_.size(); k < specs.size(); ++k) {
    GeneratedJob job;
    job.config = submitted_config(specs[k]);
    job.maps = job.config.maps;
    job.spec = std::move(specs[k]);
    jobs_.push_back(std::move(job));
  }
}

const GeneratedJob& JobStream::at(std::size_t index) {
  generate(index + 1);
  return jobs_[index];
}

void VirtualCluster::add_job(JobId id, const GeneratedJob& job) {
  rush::require(id == static_cast<JobId>(jobs_.size()),
                "VirtualCluster: job ids must be dense in submission order");
  jobs_.push_back(ClientJob{&job, job.spec.task_count()});
}

void VirtualCluster::on_wave(const rush::EngineWave& wave) {
  for (const rush::EngineAssignment& grant : wave.assignments) {
    rush::require(grant.job >= 0 && grant.job < static_cast<JobId>(jobs_.size()),
                  "VirtualCluster: grant for an unknown job");
    const GeneratedJob& job = *jobs_[static_cast<std::size_t>(grant.job)].job;
    const int kind_count = grant.is_reduce ? job.spec.task_count() - job.maps : job.maps;
    rush::require(grant.task_index >= 0 && grant.task_index < kind_count,
                  "VirtualCluster: grant for an unknown task");
    const int task = grant.is_reduce ? job.maps + grant.task_index : grant.task_index;
    Attempt attempt;
    attempt.seq = seq_++;
    attempt.job = grant.job;
    attempt.container = grant.container;
    const Seconds runtime = job.spec.tasks[static_cast<std::size_t>(task)].nominal_runtime *
                            rng_.lognormal_noise(physics_.noise_sigma);
    attempt.failed = rng_.uniform() < physics_.failure_probability;
    attempt.amount = attempt.failed ? runtime * rng_.uniform(0.1, 0.9) : runtime;
    attempt.end = wave.now + attempt.amount;
    pending_.push(attempt);
  }
}

rush::ClientMessage VirtualCluster::pop(Seconds now, JobId& finished_job) {
  const Attempt attempt = pending_.top();
  pending_.pop();
  rush::ClientMessage message;
  if (attempt.end < now) ++late_ends_;
  message.time = std::max(attempt.end, now);
  message.container = attempt.container;
  finished_job = rush::kInvalidJob;
  if (attempt.failed) {
    message.kind = rush::ClientMessage::Kind::kContainerFreed;
    message.wasted = attempt.amount;
    return message;
  }
  message.kind = rush::ClientMessage::Kind::kTaskFinished;
  message.runtime = attempt.amount;
  ClientJob& job = jobs_[static_cast<std::size_t>(attempt.job)];
  if (--job.remaining == 0) finished_job = attempt.job;
  return message;
}

}  // namespace perfbench
