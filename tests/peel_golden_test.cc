// Frozen golden digests of the onion peel and the planning pass.
//
// The peel's deadline order is repaired in place across probes and layers
// (DESIGN.md §5d) rather than recomputed by a full sort, so no in-tree
// reference sort remains to diff against.  These digests take its place:
// each case hashes every output bit a plan consumer can observe — targets
// (id, mapping deadline, target completion, level, layer, impossible), the
// horizon, the warm hint, and the probe / warm-layer / replayed-layer
// counters of onion_peel; and every Plan entry plus peel_probes of
// RushPlanner::plan across a drifting multi-pass session.
//
// The seeded matrix covers crossing sigmoid inverses (mixed betas and
// priorities, so deadline order changes between probe levels), (deadline,
// eta) ties (shared utility curves, etas and runtimes), constant and step
// utility tails (deadlines pinned at the horizon or a budget), a single
// job and 1000+ jobs, cold / warm-hint / layer-replay peels, section_probes
// 1 and 4, and planner configs with and without warm start, replay, the
// WCDE cache and the batched WCDE stage.
//
// The frozen values were recorded with the full stable-sort peel that the
// merge repair replaced.  A mismatch means the plan changed; the failure
// message prints the new digest.  Only refreeze after proving the change intended.  The digests
// hash IEEE-754 bit patterns, so they assume the default x86-64 build
// (SSE2 arithmetic, no FMA contraction, the glibc libm).

#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/rush_planner.h"
#include "src/tas/onion_peeling.h"
#include "src/utility/utility_function.h"

namespace rush {
namespace {

/// FNV-1a over 64-bit words (doubles by bit pattern).
class Digest {
 public:
  void add(std::uint64_t word) {
    hash_ ^= word;
    hash_ *= 0x100000001B3ULL;
  }
  void add(double x) { add(std::bit_cast<std::uint64_t>(x)); }
  void add(long x) { add(static_cast<std::uint64_t>(x)); }
  void add(int x) { add(static_cast<std::uint64_t>(static_cast<std::int64_t>(x))); }
  void add(bool x) { add(static_cast<std::uint64_t>(x ? 1 : 0)); }
  std::uint64_t get() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

std::string hex(std::uint64_t x) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(x));
  return buf;
}

void add_targets(Digest& d, const TasResult& r) {
  d.add(static_cast<long>(r.targets.size()));
  for (const TasTarget& t : r.targets) {
    d.add(static_cast<long>(t.id));
    d.add(t.mapping_deadline);
    d.add(t.target_completion);
    d.add(t.utility_level);
    d.add(t.layer);
    d.add(t.impossible);
  }
  d.add(r.horizon);
}

void add_tas(Digest& d, const TasResult& r) {
  add_targets(d, r);
  d.add(r.probes);
  d.add(r.warm_layers);
  d.add(r.replayed_layers);
  d.add(static_cast<long>(r.hint.size()));
  for (const PeelHintEntry& h : r.hint) {
    d.add(static_cast<long>(h.id));
    d.add(h.level);
    d.add(h.completion);
  }
}

void add_plan(Digest& d, const Plan& plan) {
  d.add(static_cast<long>(plan.entries.size()));
  for (const PlanEntry& e : plan.entries) {
    d.add(static_cast<long>(e.id));
    d.add(e.eta);
    d.add(e.target_completion);
    d.add(e.utility_level);
    d.add(e.impossible);
    d.add(e.desired_containers);
  }
  d.add(plan.computed_at);
  d.add(plan.peel_probes);
}

// ---------------------------------------------------------------------------
// onion_peel cases
// ---------------------------------------------------------------------------

enum class Shape {
  /// Sigmoids with spread betas and priorities: inverse curves cross, so the
  /// deadline order changes between probed levels.
  kCrossingSigmoids,
  /// A few shared curves, etas and runtimes: many (deadline, eta) ties.
  kTies,
  /// Constant and step utilities mixed with decaying ones, plus zero-demand
  /// jobs: deadlines pinned at the horizon or a budget.
  kConstantTails,
};

/// A TAS instance that owns its utility curves.
struct Instance {
  std::vector<std::unique_ptr<UtilityFunction>> utilities;
  std::vector<TasJob> jobs;
};

Instance make_instance(Shape shape, int count, Seconds now, Rng& rng) {
  Instance inst;
  for (int i = 0; i < count; ++i) {
    TasJob job;
    job.id = 3 * i + 1;
    switch (shape) {
      case Shape::kCrossingSigmoids: {
        const Seconds budget = now + rng.uniform(30.0, 900.0);
        inst.utilities.push_back(std::make_unique<SigmoidUtility>(
            budget, rng.uniform(0.5, 6.0), rng.uniform(0.002, 0.6)));
        job.eta = rng.uniform(20.0, 2500.0);
        job.avg_task_runtime = rng.uniform(2.0, 60.0);
        break;
      }
      case Shape::kTies: {
        const int curve = static_cast<int>(rng.uniform_int(0, 2));
        const Seconds budget = now + 150.0 * (curve + 1);
        if (curve == 1) {
          inst.utilities.push_back(std::make_unique<LinearUtility>(budget, 3.0, 0.02));
        } else {
          inst.utilities.push_back(
              std::make_unique<SigmoidUtility>(budget, 2.0 + curve, 0.05));
        }
        job.eta = 100.0 * static_cast<double>(rng.uniform_int(1, 3));
        job.avg_task_runtime = rng.uniform_int(0, 1) == 0 ? 10.0 : 20.0;
        break;
      }
      case Shape::kConstantTails: {
        const int kind = static_cast<int>(rng.uniform_int(0, 5));
        const Seconds budget = now + rng.uniform(40.0, 600.0);
        if (kind <= 1) {
          inst.utilities.push_back(std::make_unique<ConstantUtility>(rng.uniform(0.5, 4.0)));
        } else if (kind == 2) {
          inst.utilities.push_back(std::make_unique<StepUtility>(budget, rng.uniform(1.0, 4.0)));
        } else if (kind == 3) {
          inst.utilities.push_back(std::make_unique<LinearUtility>(
              budget, rng.uniform(1.0, 5.0), rng.uniform(0.005, 0.2)));
        } else {
          inst.utilities.push_back(std::make_unique<SigmoidUtility>(
              budget, rng.uniform(1.0, 5.0), rng.uniform(0.01, 0.4)));
        }
        job.eta = rng.uniform_int(0, 9) == 0 ? 0.0 : rng.uniform(10.0, 1500.0);
        job.avg_task_runtime = rng.uniform(1.0, 40.0);
        break;
      }
    }
    job.utility = inst.utilities.back().get();
    inst.jobs.push_back(job);
  }
  return inst;
}

struct PeelCase {
  const char* name;
  Shape shape;
  int jobs;
  ContainerCount capacity;
  int section_probes;
  std::uint64_t seed;
  /// Frozen digests: cold peel at t0, cold peel of the drifted instance at
  /// t1, warm-hinted peel at t1, and a layer-replayed peel at t1.
  std::uint64_t cold;
  std::uint64_t drifted;
  std::uint64_t warm;
  std::uint64_t replay;
};

struct PeelDigests {
  std::uint64_t cold = 0;
  std::uint64_t drifted = 0;
  std::uint64_t warm = 0;
  std::uint64_t replay = 0;
};

PeelDigests run_peel_case(const PeelCase& c) {
  Rng rng(c.seed);
  const Seconds t0 = rng.uniform(0.0, 100.0);
  Instance inst = make_instance(c.shape, c.jobs, t0, rng);

  OnionPeelingConfig config;
  config.section_probes = c.section_probes;
  PeelDigests out;
  const TasResult first = onion_peel(inst.jobs, c.capacity, t0, config);
  Digest d0;
  add_tas(d0, first);
  out.cold = d0.get();

  // One scheduling event later: time advances, demand drains with jitter,
  // and a handful of jobs move well beyond the replay tolerance.
  const Seconds t1 = t0 + rng.uniform(1.0, 8.0);
  std::vector<JobId> moved;
  for (TasJob& job : inst.jobs) {
    if (job.eta <= 0.0) continue;
    if (rng.uniform_int(0, 9) == 0) {
      job.eta *= rng.uniform(0.5, 0.8);
      moved.push_back(job.id);
    } else {
      job.eta *= rng.uniform(0.98, 1.0);
    }
  }

  const TasResult drifted = onion_peel(inst.jobs, c.capacity, t1, config);
  Digest d1;
  add_tas(d1, drifted);
  out.drifted = d1.get();

  OnionPeelingConfig warm = config;
  warm.warm_hint = &first.hint;
  const TasResult warmed = onion_peel(inst.jobs, c.capacity, t1, warm);
  Digest d2;
  add_tas(d2, warmed);
  out.warm = d2.get();
  // Warm start is an identity on targets (DESIGN.md §5d): only the probe
  // counters may differ from the cold peel of the same instance.
  Digest cold_targets;
  Digest warm_targets;
  add_targets(cold_targets, drifted);
  add_targets(warm_targets, warmed);
  EXPECT_EQ(cold_targets.get(), warm_targets.get()) << c.name;

  PeelReplay replay;
  replay.targets = &first.targets;
  replay.moved = &moved;  // ids ascend with job index, so already sorted
  replay.tolerance = 0.05;
  OnionPeelingConfig replayed = warm;
  replayed.replay = &replay;
  Digest d3;
  add_tas(d3, onion_peel(inst.jobs, c.capacity, t1, replayed));
  out.replay = d3.get();
  return out;
}

const PeelCase kPeelCases[] = {
    // name, shape, jobs, capacity, k, seed, cold, drifted, warm, replay
    {"single-k4", Shape::kCrossingSigmoids, 1, 4, 4, 11,
     0xaf2f7876d8d32b1d, 0x12615661b60c3a05,
     0xaa60ea1288dc0a5d, 0xadd99b15bfb2b3a0},
    {"single-k1", Shape::kConstantTails, 1, 4, 1, 12,
     0x5600f78b02f40cb2, 0x8f1bf5e50d649f42,
     0x01865a0f29af1baf, 0xeaf58cb26e0aae1d},
    {"crossing-40-k4", Shape::kCrossingSigmoids, 40, 16, 4, 21,
     0x6804b0de66191abd, 0xca4edd17b92f6d7e,
     0x6d9fdacc7450a8ba, 0x6d9fdacc7450a8ba},
    {"crossing-40-k1", Shape::kCrossingSigmoids, 40, 16, 1, 22,
     0x1223eb90d4839ae2, 0xb1f66b683152bc6d,
     0xb95cbec64f805cc7, 0x5ebb98ca049145ef},
    {"crossing-200-k4", Shape::kCrossingSigmoids, 200, 48, 4, 23,
     0x1fd3e600d0580ba7, 0x30d1e898e666e5fb,
     0x8523cd57784a18f0, 0xfc4b8e2941372524},
    {"ties-60-k4", Shape::kTies, 60, 24, 4, 31,
     0x6c7068c5df3dde92, 0xe54e309c5d9c2dfc,
     0x9c184f6a609ca756, 0x3ff8d77d219691b9},
    {"ties-200-k1", Shape::kTies, 200, 48, 1, 32,
     0x97f22c23713d3ff9, 0x0f7eb8703681604c,
     0xd0e91067de55642d, 0x281528c32f9b6589},
    {"tails-80-k4", Shape::kConstantTails, 80, 32, 4, 41,
     0xa6712772fc776d06, 0x1716ecd5273a611e,
     0x7ac639c6a45831a8, 0x641f4e22cd5979f6},
    {"tails-200-k1", Shape::kConstantTails, 200, 48, 1, 42,
     0xa21db8c7bda45270, 0xa18ef52b309bf551,
     0x592d2dcb3f545eca, 0x6df9873c33fc0b7e},
    {"crossing-1200-k4", Shape::kCrossingSigmoids, 1200, 48, 4, 51,
     0x55ec8958d9a0f054, 0x32d2fbb6f2826111,
     0x435e68f70ce70a28, 0x7b55dc1cd175e724},
    {"crossing-1200-k1", Shape::kCrossingSigmoids, 1200, 96, 1, 52,
     0x5213fbc21b5e4b96, 0x1628faeee76b5c50,
     0x2133ed52ef7aade7, 0x5a7f3a2311cf5cb5},
    {"tails-1100-k4", Shape::kConstantTails, 1100, 64, 4, 53,
     0xf5abc482b1afdb02, 0x5f732ab535a3ca76,
     0x085fdbe1e6e6b7dc, 0xf04f1c8759624014},
};

TEST(PeelGolden, OnionPeelDigestsAreFrozen) {
  for (const PeelCase& c : kPeelCases) {
    const PeelDigests got = run_peel_case(c);
    EXPECT_EQ(got.cold, c.cold) << c.name << " cold: now " << hex(got.cold);
    EXPECT_EQ(got.drifted, c.drifted) << c.name << " drifted: now " << hex(got.drifted);
    EXPECT_EQ(got.warm, c.warm) << c.name << " warm: now " << hex(got.warm);
    EXPECT_EQ(got.replay, c.replay) << c.name << " replay: now " << hex(got.replay);
  }
}

// ---------------------------------------------------------------------------
// RushPlanner::plan cases
// ---------------------------------------------------------------------------

/// One live job of a drifting session; owns its utility.
struct SimJob {
  PlannerJob planner_job;
  std::unique_ptr<UtilityFunction> utility;
  double mean = 0.0;
};

std::unique_ptr<SimJob> make_sim_job(Rng& rng, JobId id, Seconds now) {
  auto job = std::make_unique<SimJob>();
  const Seconds budget = now + rng.uniform(40.0, 600.0);
  const double priority = rng.uniform(0.5, 5.0);
  const int kind = static_cast<int>(rng.uniform_int(0, 5));
  if (kind == 0) {
    job->utility = std::make_unique<ConstantUtility>(priority);
  } else if (kind <= 2) {
    job->utility = std::make_unique<LinearUtility>(budget, priority, rng.uniform(0.01, 0.5));
  } else {
    job->utility = std::make_unique<SigmoidUtility>(budget, priority, rng.uniform(0.005, 0.5));
  }
  job->mean = rng.uniform(30.0, 900.0);
  job->planner_job.id = id;
  job->planner_job.mean_runtime = rng.uniform(2.0, 30.0);
  job->planner_job.samples = static_cast<std::size_t>(rng.uniform_int(0, 60));
  job->planner_job.utility = job->utility.get();
  return job;
}

void refresh_demand(Rng& rng, SimJob& job) {
  const double sigma = rng.uniform(0.05, 0.3) * job.mean;
  job.planner_job.set_demand(
      QuantizedPmf::gaussian(job.mean, sigma, 128, job.mean * 3.5 / 128.0));
}

struct PlannerCase {
  const char* name;
  int initial_jobs;
  int passes;
  ContainerCount capacity;
  std::uint64_t seed;
  bool warm_start;
  double replay_tolerance;
  bool adaptive_delta;
  bool wcde_cache;
  bool wcde_batch;
  std::uint64_t digest;
};

/// Drives one planner through a drifting session — time advances, demand
/// drains, some jobs re-sample (a new PMF snapshot) while others keep
/// theirs, jobs finish and arrive — and digests every pass's Plan.
std::uint64_t run_planner_case(const PlannerCase& c) {
  Rng rng(c.seed);
  RushConfig config;
  config.warm_start_peeling = c.warm_start;
  config.replan_eta_tolerance = c.replay_tolerance;
  config.adaptive_delta = c.adaptive_delta;
  config.wcde_cache = c.wcde_cache;
  config.wcde_batch = c.wcde_batch;
  RushPlanner planner(config);

  Seconds now = rng.uniform(0.0, 100.0);
  JobId next_id = 0;
  std::vector<std::unique_ptr<SimJob>> sim;
  for (int i = 0; i < c.initial_jobs; ++i) {
    sim.push_back(make_sim_job(rng, next_id++, now));
    refresh_demand(rng, *sim.back());
  }
  Digest d;
  for (int pass = 0; pass < c.passes && !sim.empty(); ++pass) {
    const Seconds dt = rng.uniform(0.5, 6.0);
    now += dt;
    double total = 0.0;
    for (const auto& job : sim) total += job->mean;
    for (auto& job : sim) {
      if (rng.uniform_int(0, 3) != 0) continue;  // no new sample this event
      const double share = static_cast<double>(c.capacity) * job->mean / total;
      job->mean -= share * dt * rng.uniform(0.6, 1.4);
      job->planner_job.samples += 1;
      if (job->mean >= 4.0) refresh_demand(rng, *job);
    }
    std::erase_if(sim, [](const std::unique_ptr<SimJob>& j) { return j->mean < 4.0; });
    if (rng.uniform(0.0, 1.0) < 0.25 || sim.empty()) {
      sim.push_back(make_sim_job(rng, next_id++, now));
      refresh_demand(rng, *sim.back());
    }
    std::vector<PlannerJob> jobs;
    jobs.reserve(sim.size());
    for (const auto& job : sim) jobs.push_back(job->planner_job);
    add_plan(d, planner.plan(jobs, c.capacity, now));
  }
  return d.get();
}

const PlannerCase kPlannerCases[] = {
    // name, jobs, passes, capacity, seed, warm, replay tol, adaptive, cache, batch, digest
    {"cold-30", 30, 40, 12, 101, false, 0.0, false, true, true,
     0x91545ff9873e2b88},
    {"warm-30", 30, 40, 12, 101, true, 0.0, false, true, true,
     0x3d1a43c4b41de776},
    {"replay-60", 60, 40, 24, 102, true, 0.08, false, true, true,
     0x82eac3f42f0b3193},
    {"warm-200-adaptive", 200, 12, 48, 103, true, 0.0, true, true, true,
     0x53a8811610598d5a},
    {"cold-200-nocache", 200, 6, 48, 104, false, 0.0, true, false, true,
     0x67a970098ff383da},
    {"warm-120-pool-path", 120, 10, 32, 105, true, 0.0, false, true, false,
     0xda124d78b23e5a9a},
    {"single", 1, 10, 4, 106, true, 0.0, false, true, true,
     0xa8cb8c30a350ddec},
    {"cold-1000", 1000, 2, 48, 107, false, 0.0, false, true, true,
     0xf9594c36581ca8c6},
};

TEST(PeelGolden, PlannerDigestsAreFrozen) {
  for (const PlannerCase& c : kPlannerCases) {
    const std::uint64_t got = run_planner_case(c);
    EXPECT_EQ(got, c.digest) << c.name << ": now " << hex(got);
  }
}

}  // namespace
}  // namespace rush
