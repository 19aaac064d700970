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
// The edge cases pin the jobs whose deadline does not move with the probed
// level: half-constant and all-constant sets (priority 0 included), exact
// (deadline, eta) ties between constant jobs and sigmoids clamped at an
// explicit horizon, an explicit horizon no constant job can meet, a replay
// certificate over exactly the moving jobs, and the pooled k-section path.
// They also pin the EDF walk's early exits and lane reuse: a horizon at
// which no entry's supply exceeds the whole demand (no walk stops early), a
// front-loaded set whose first EDF entry already violates, and a replayed
// prefix followed by degenerate layers that probe the certificate's level
// again.
//
// The tie-break cases pin every lookup the peel answers by a lowest-input-
// position rule: long runs of equal level caps, constant jobs with
// identical (deadline, eta), a moving and a fixed job on the binding
// deadline of a warm probe and on the bottleneck's latest deadline, and
// warm hints and replayed layers that name departed and zero-demand jobs.
//
// The frozen values were recorded with the full stable-sort peel that the
// merge repair replaced.  A mismatch means the plan changed; the failure
// message prints the new digest.  Only refreeze after proving the change intended.  The digests
// hash IEEE-754 bit patterns, so they assume the default x86-64 build
// (SSE2 arithmetic, no FMA contraction, the glibc libm).

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/check/invariant_auditor.h"
#include "src/common/error.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
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
  /// About half ConstantUtility jobs (some at priority 0, some sharing a
  /// priority), the rest sigmoid, linear, step and far-budget sigmoids whose
  /// deadline sits at the horizon at every level.
  kHalfConstant,
  /// Every job ConstantUtility, including priority 0 and shared priorities.
  kAllConstant,
  /// Constant jobs, far-budget sigmoids (deadline at the horizon at every
  /// level) and near-horizon sigmoids and linears (at the horizon only at
  /// low levels) drawing from two runtimes and two etas, so exact (deadline,
  /// eta) ties join jobs whose deadline moves with the level to jobs whose
  /// deadline does not.  Needs an explicit horizon.
  kClampedTies,
  /// Large etas on steep sigmoids whose budgets fall within a minute, plus a
  /// few later ones: at most probed levels the earliest EDF deadline alone
  /// already carries more demand than the capacity can serve by it.
  kFrontLoaded,
  /// Five shared curves (two constants, a step and a linear whose caps equal
  /// the constants', and a sigmoid), two etas and two runtimes: long runs
  /// of equal level caps, and constant jobs with identical (deadline, eta).
  kEqualCaps,
  /// Constant jobs, and sigmoids and linears whose deadline sits at the
  /// explicit horizon at low levels, on two runtimes: a moving and a fixed
  /// job share the binding deadline and the bottleneck's latest deadline.
  /// Needs an explicit horizon.
  kSharedDeadlines,
};

/// A TAS instance that owns its utility curves.
struct Instance {
  std::vector<std::unique_ptr<UtilityFunction>> utilities;
  std::vector<TasJob> jobs;
};

/// `horizon` is the explicit horizon the instance is peeled with (0 when the
/// peel picks it); only kClampedTies and kSharedDeadlines place budgets
/// relative to it.
Instance make_instance(Shape shape, int count, Seconds now, Seconds horizon, Rng& rng) {
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
      case Shape::kHalfConstant: {
        const int kind = static_cast<int>(rng.uniform_int(0, 9));
        const Seconds budget = now + rng.uniform(40.0, 600.0);
        if (kind <= 3) {
          inst.utilities.push_back(std::make_unique<ConstantUtility>(rng.uniform(0.2, 4.0)));
        } else if (kind == 4) {
          const double shared[] = {0.0, 1.0, 2.5};
          inst.utilities.push_back(
              std::make_unique<ConstantUtility>(shared[rng.uniform_int(0, 2)]));
        } else if (kind <= 6) {
          inst.utilities.push_back(std::make_unique<SigmoidUtility>(
              budget, rng.uniform(1.0, 5.0), rng.uniform(0.01, 0.4)));
        } else if (kind == 7) {
          inst.utilities.push_back(std::make_unique<LinearUtility>(
              budget, rng.uniform(1.0, 5.0), rng.uniform(0.005, 0.2)));
        } else if (kind == 8) {
          inst.utilities.push_back(std::make_unique<StepUtility>(budget, rng.uniform(1.0, 4.0)));
        } else {
          inst.utilities.push_back(
              std::make_unique<SigmoidUtility>(now + 1e7, rng.uniform(1.0, 5.0), 1.0));
        }
        job.eta = rng.uniform_int(0, 11) == 0 ? 0.0 : rng.uniform(10.0, 1500.0);
        job.avg_task_runtime = rng.uniform(1.0, 40.0);
        break;
      }
      case Shape::kAllConstant: {
        const int kind = static_cast<int>(rng.uniform_int(0, 7));
        const Priority priority = kind == 0 ? 0.0 : kind <= 2 ? 1.0 : rng.uniform(0.1, 4.0);
        inst.utilities.push_back(std::make_unique<ConstantUtility>(priority));
        job.eta = rng.uniform_int(0, 9) == 0 ? 0.0 : rng.uniform(10.0, 1500.0);
        job.avg_task_runtime = rng.uniform(1.0, 40.0);
        break;
      }
      case Shape::kClampedTies: {
        const int kind = static_cast<int>(rng.uniform_int(0, 3));
        const Priority priority = rng.uniform(0.5, 3.0);
        if (kind == 0) {
          inst.utilities.push_back(std::make_unique<ConstantUtility>(priority));
        } else if (kind == 1) {
          inst.utilities.push_back(
              std::make_unique<SigmoidUtility>(horizon + 1e7, priority, 1.0));
        } else if (kind == 2) {
          inst.utilities.push_back(std::make_unique<SigmoidUtility>(
              horizon - rng.uniform(0.0, 120.0), priority, 0.05));
        } else {
          inst.utilities.push_back(std::make_unique<LinearUtility>(
              horizon - rng.uniform(0.0, 120.0), priority, 0.01));
        }
        job.eta = rng.uniform_int(0, 1) == 0 ? 200.0 : 400.0;
        job.avg_task_runtime = rng.uniform_int(0, 1) == 0 ? 5.0 : 30.0;
        break;
      }
      case Shape::kFrontLoaded: {
        const bool early = rng.uniform_int(0, 4) != 0;
        const Seconds budget = now + (early ? rng.uniform(5.0, 60.0) : rng.uniform(200.0, 900.0));
        inst.utilities.push_back(std::make_unique<SigmoidUtility>(
            budget, rng.uniform(1.0, 5.0), rng.uniform(0.05, 0.8)));
        job.eta = early ? rng.uniform(400.0, 3000.0) : rng.uniform(20.0, 300.0);
        job.avg_task_runtime = rng.uniform(1.0, 8.0);
        break;
      }
      case Shape::kEqualCaps: {
        const int curve = static_cast<int>(rng.uniform_int(0, 4));
        if (curve <= 1) {
          inst.utilities.push_back(std::make_unique<ConstantUtility>(1.0 + curve));
        } else if (curve == 2) {
          inst.utilities.push_back(std::make_unique<StepUtility>(now + 250.0, 1.0));
        } else if (curve == 3) {
          // Cap beta * budget + W = 2.0 at `now`, the second constant's.
          inst.utilities.push_back(std::make_unique<LinearUtility>(now + 100.0, 1.0, 0.01));
        } else {
          inst.utilities.push_back(std::make_unique<SigmoidUtility>(now + 300.0, 2.0, 0.05));
        }
        job.eta = rng.uniform_int(0, 11) == 0 ? 0.0 : 150.0 * static_cast<double>(rng.uniform_int(1, 2));
        job.avg_task_runtime = rng.uniform_int(0, 1) == 0 ? 10.0 : 25.0;
        break;
      }
      case Shape::kSharedDeadlines: {
        const int kind = static_cast<int>(rng.uniform_int(0, 4));
        const Priority priority = rng.uniform(0.5, 3.0);
        if (kind <= 1) {
          inst.utilities.push_back(std::make_unique<ConstantUtility>(priority));
        } else if (kind == 2) {
          inst.utilities.push_back(std::make_unique<SigmoidUtility>(
              horizon - rng.uniform(0.0, 60.0), priority, 0.05));
        } else if (kind == 3) {
          inst.utilities.push_back(std::make_unique<LinearUtility>(
              horizon - rng.uniform(0.0, 60.0), priority, 0.01));
        } else {
          inst.utilities.push_back(std::make_unique<SigmoidUtility>(
              now + rng.uniform(60.0, 600.0), priority, 0.05));
        }
        job.eta = rng.uniform_int(0, 1) == 0 ? 200.0 : 400.0;
        job.avg_task_runtime = rng.uniform_int(0, 1) == 0 ? 5.0 : 30.0;
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

/// `PeelSetup::horizon_after` value asking for a horizon at which the
/// latest reachable deadline's supply is exactly the whole demand:
/// now + min R_i + total eta / capacity, re-derived at the drifted `now` by
/// rescaling every eta.  Level 0 then just fits, and no EDF entry's supply
/// ever exceeds the demand of the call.
constexpr Seconds kTightHorizon = -1.0;

/// Sum of the positive etas, and the smallest runtime among those jobs.
std::pair<ContainerSeconds, Seconds> demand_of(const std::vector<TasJob>& jobs) {
  ContainerSeconds total = 0.0;
  Seconds min_runtime = std::numeric_limits<Seconds>::infinity();
  for (const TasJob& job : jobs) {
    if (job.eta <= 0.0) continue;
    total += job.eta;
    min_runtime = std::min(min_runtime, job.avg_task_runtime);
  }
  return {total, min_runtime};
}

/// Scales every eta so the demand exactly fills the supply from `now` to
/// the latest deadline, horizon - min R_i.
void fill_to_horizon(std::vector<TasJob>& jobs, ContainerCount capacity, Seconds now,
                     Seconds horizon) {
  const auto [total, min_runtime] = demand_of(jobs);
  const double scale = static_cast<double>(capacity) * (horizon - min_runtime - now) / total;
  for (TasJob& job : jobs) job.eta *= scale;
}

/// What one peel scenario varies.
struct PeelSetup {
  const char* name;
  Shape shape;
  int jobs;
  ContainerCount capacity;
  int section_probes;
  std::uint64_t seed;
  /// Explicit horizon in seconds after the first peel's `now`; 0 lets the
  /// peel choose it, kTightHorizon derives it from the demand.
  Seconds horizon_after;
  /// Pool for the k-section rounds (nullptr = serial).
  ThreadPool* pool;
};

/// Digests `first` (the cold peel at t0) and the peels of the drifted
/// `jobs` at t1: cold, warm from `first`'s hint, and replaying `first`'s
/// layers with `moved` (ascending ids) as the moved jobs.
PeelDigests digest_legs(const char* name, const TasResult& first,
                        const std::vector<TasJob>& jobs, ContainerCount capacity, Seconds t1,
                        const OnionPeelingConfig& config, const std::vector<JobId>& moved) {
  PeelDigests out;
  Digest d0;
  add_tas(d0, first);
  out.cold = d0.get();

  const TasResult drifted = onion_peel(jobs, capacity, t1, config);
  Digest d1;
  add_tas(d1, drifted);
  out.drifted = d1.get();

  OnionPeelingConfig warm = config;
  warm.warm_hint = &first.hint;
  const TasResult warmed = onion_peel(jobs, capacity, t1, warm);
  Digest d2;
  add_tas(d2, warmed);
  out.warm = d2.get();
  // Warm start is an identity on targets (DESIGN.md §5d): only the probe
  // counters may differ from the cold peel of the same instance.
  Digest cold_targets;
  Digest warm_targets;
  add_targets(cold_targets, drifted);
  add_targets(warm_targets, warmed);
  EXPECT_EQ(cold_targets.get(), warm_targets.get()) << name;

  PeelReplay replay;
  replay.targets = &first.targets;
  replay.moved = &moved;
  replay.tolerance = 0.05;
  OnionPeelingConfig replayed = warm;
  replayed.replay = &replay;
  Digest d3;
  add_tas(d3, onion_peel(jobs, capacity, t1, replayed));
  out.replay = d3.get();
  return out;
}

PeelDigests run_peel(const PeelSetup& c) {
  Rng rng(c.seed);
  const Seconds t0 = rng.uniform(0.0, 100.0);
  Seconds horizon = c.horizon_after > 0.0 ? t0 + c.horizon_after : 0.0;
  Instance inst = make_instance(c.shape, c.jobs, t0, horizon, rng);
  const bool tight = c.horizon_after == kTightHorizon;
  if (tight) {
    const auto [total, min_runtime] = demand_of(inst.jobs);
    horizon = t0 + min_runtime + total / static_cast<double>(c.capacity);
  }

  OnionPeelingConfig config;
  config.section_probes = c.section_probes;
  config.horizon = horizon;
  config.pool = c.pool;
  const TasResult first = onion_peel(inst.jobs, c.capacity, t0, config);

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
  // Scale the drifted demand back to exactly the supply left at t1.
  if (tight) fill_to_horizon(inst.jobs, c.capacity, t1, horizon);

  // ids ascend with job index, so `moved` is already sorted
  return digest_legs(c.name, first, inst.jobs, c.capacity, t1, config, moved);
}

PeelDigests run_peel_case(const PeelCase& c) {
  return run_peel({c.name, c.shape, c.jobs, c.capacity, c.section_probes, c.seed, 0.0, nullptr});
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
// onion_peel edge cases: constant deadlines, explicit horizons, the pool
// ---------------------------------------------------------------------------

struct EdgePeelCase {
  const char* name;
  Shape shape;
  int jobs;
  ContainerCount capacity;
  int section_probes;
  std::uint64_t seed;
  /// Explicit horizon after the first peel's `now` (0 = automatic).
  Seconds horizon_after;
  std::uint64_t cold;
  std::uint64_t drifted;
  std::uint64_t warm;
  std::uint64_t replay;
};

const EdgePeelCase kEdgePeelCases[] = {
    // name, shape, jobs, capacity, k, seed, horizon after t0,
    // cold, drifted, warm, replay
    {"half-constant-200-k4", Shape::kHalfConstant, 200, 48, 4, 61, 0.0,
     0x24d0f84322b606ab, 0xdaca05816a6c983b,
     0x4a1a1dfe28648f26, 0x8a7088b95e981509},
    {"half-constant-200-k1", Shape::kHalfConstant, 200, 48, 1, 62, 0.0,
     0xbbce9bb5db7c26fc, 0x52cbacee15c63dcc,
     0x36390048a5fbd82a, 0x253cfc9e9cb487c7},
    {"half-constant-60-k4-horizon", Shape::kHalfConstant, 60, 24, 4, 63, 9000.0,
     0x3ba1d3d704d23e95, 0x119ff6bd33b70e3e,
     0xda1446966ffc3c72, 0xf9140ac4db71b6ca},
    {"all-constant-50-k4", Shape::kAllConstant, 50, 16, 4, 64, 0.0,
     0xfab438598bd1f10e, 0x5742b9d37678333b,
     0x1c05747ee42f38db, 0xeccf5f8b9a8ab3c3},
    {"all-constant-120-k1", Shape::kAllConstant, 120, 32, 1, 65, 0.0,
     0xc08100bd7fbb35ab, 0xe72ed817cca68e2a,
     0xf5a46f7877019e94, 0x699d38a17d339c55},
    {"all-constant-1-k4", Shape::kAllConstant, 1, 4, 4, 66, 0.0,
     0x8ce1db78af56c5e9, 0xe0b1e09d4255d149,
     0xa352a0d21248b934, 0xa352a0d21248b934},
    {"clamped-ties-60-k4", Shape::kClampedTies, 60, 16, 4, 67, 3000.0,
     0x18086a3991391301, 0x111529b0832eb349,
     0x4bf154691ed41486, 0x897daf87268b72e8},
    {"clamped-ties-200-k1", Shape::kClampedTies, 200, 48, 1, 68, 3000.0,
     0x27878badfb85b21e, 0x113df9a6a2f1a33e,
     0xe6218ed41ca3be58, 0x4c00a88646079049},
    // No EDF entry's supply reaches the demand of the call: every walk runs
    // to its last entry.
    {"tight-half-constant-60-k4", Shape::kHalfConstant, 60, 24, 4, 69, kTightHorizon,
     0x91931227658e1c5a, 0xb989489571681974,
     0x98bd06bad1a089ac, 0xd29c6b1b82f33a23},
    // Its replayed prefix holds a zero-level layer that re-prices off the
    // horizon; the lifted prefix fails its certificate and the retry at the
    // stored levels certifies (replay digest refrozen with that retry).
    {"tight-crossing-60-k1", Shape::kCrossingSigmoids, 60, 16, 1, 70, kTightHorizon,
     0x39ab073173c0b292, 0xd5da94280b659f18,
     0xcc72ea5f47dae399, 0xa98725e924fea5fc},
    // The first EDF entry of most probes already violates.
    {"front-loaded-80-k4", Shape::kFrontLoaded, 80, 16, 4, 72, 0.0,
     0x460b8d6593d684b3, 0xad9724fcb3a7fe4b,
     0xf1e25c339353124f, 0x477421dfb6080c76},
    {"front-loaded-200-k1", Shape::kFrontLoaded, 200, 48, 1, 73, 0.0,
     0x8ceae80210ba476a, 0x3f43aa52f4f3ac00,
     0xdd52f12334feb68e, 0x0fe843e3d015f50e},
};

TEST(PeelGolden, EdgeCaseDigestsAreFrozen) {
  // Every k > 1 case also runs its k-section rounds on a pool, which must
  // not change one bit (probe counters included).
  ThreadPool pool(3);
  for (const EdgePeelCase& c : kEdgePeelCases) {
    for (ThreadPool* lanes : {static_cast<ThreadPool*>(nullptr), &pool}) {
      if (lanes != nullptr && c.section_probes == 1) continue;
      const PeelDigests got = run_peel({c.name, c.shape, c.jobs, c.capacity, c.section_probes,
                                        c.seed, c.horizon_after, lanes});
      const std::string label = std::string(c.name) + (lanes != nullptr ? " pooled" : "");
      EXPECT_EQ(got.cold, c.cold) << label << " cold: now " << hex(got.cold);
      EXPECT_EQ(got.drifted, c.drifted) << label << " drifted: now " << hex(got.drifted);
      EXPECT_EQ(got.warm, c.warm) << label << " warm: now " << hex(got.warm);
      EXPECT_EQ(got.replay, c.replay) << label << " replay: now " << hex(got.replay);
    }
  }
}

TEST(PeelGolden, ExplicitHorizonShorterThanAConstantJobsRuntimeThrows) {
  // horizon - R_i < now: the constant job reaches no level at all, so even
  // the zero level is infeasible and the peel refuses the horizon.
  const Seconds now = 40.0;
  ConstantUtility constant(2.0);
  SigmoidUtility sigmoid(now + 100.0, 3.0, 0.1);
  std::vector<TasJob> jobs(2);
  jobs[0] = {1, 50.0, 5.0, &sigmoid};
  jobs[1] = {2, 50.0, 45.0, &constant};
  OnionPeelingConfig config;
  config.horizon = now + 30.0;
  EXPECT_THROW(onion_peel(jobs, 8, now, config), InternalError);
  // Without the long-running job the same horizon is fine.
  jobs.pop_back();
  EXPECT_EQ(onion_peel(jobs, 8, now, config).targets.size(), 1u);
}

TEST(PeelGolden, TiedDeadlinesAddLoadInDeadlineEtaOrder) {
  // At level 0 every job's deadline is horizon - R = 1e16, where the spacing
  // of doubles is 2: 1e16 + 1 rounds back to 1e16, while 1 + 1 + 1e16 is
  // exactly 1e16 + 2.  So the zero level fits capacity 1 exactly when the
  // large eta is added first, and only the (deadline, eta) order — small
  // etas first, whichever jobs carry them — makes it overflow by 2.  The
  // constant jobs keep their deadline at every level and the sigmoids do
  // not, so this pins the tie order between the two kinds in both
  // directions.
  const Seconds now = 0.0;
  const Seconds horizon = 1e16 + 2.0;
  ConstantUtility constant(1.0);
  SigmoidUtility sigmoid(horizon - 10.0, 1.0, 0.5);
  const auto peel_with = [&](const UtilityFunction& small, const UtilityFunction& large,
                             Seconds extra_horizon) {
    std::vector<TasJob> jobs = {{1, 1.0, 2.0, &small},
                                {2, 1e16, 2.0, &large},
                                {3, 1.0, 2.0, &small}};
    OnionPeelingConfig config;
    config.horizon = horizon + extra_horizon;
    return onion_peel(jobs, 1, now, config);
  };
  EXPECT_THROW(peel_with(constant, sigmoid, 0.0), InternalError);
  EXPECT_THROW(peel_with(sigmoid, constant, 0.0), InternalError);
  // Two more seconds of horizon make room for the exact sum.
  EXPECT_EQ(peel_with(constant, sigmoid, 2.0).targets.size(), 3u);
  EXPECT_EQ(peel_with(sigmoid, constant, 2.0).targets.size(), 3u);
}

TEST(PeelGolden, ReplayCertificateOverTheMovingJobs) {
  // Low-priority constant jobs fill the first layers; every sigmoid moves,
  // so the replayed prefix is exactly the constant jobs and the replay
  // certificate probes a reduced set holding exactly the sigmoids.
  Rng rng(71);
  const Seconds t0 = 25.0;
  std::vector<std::unique_ptr<UtilityFunction>> utilities;
  std::vector<TasJob> jobs;
  std::vector<JobId> moved;
  for (int i = 0; i < 24; ++i) {
    const bool constant = i % 3 == 0;
    if (constant) {
      utilities.push_back(std::make_unique<ConstantUtility>(rng.uniform(0.01, 0.05)));
    } else {
      utilities.push_back(std::make_unique<SigmoidUtility>(
          t0 + rng.uniform(60.0, 600.0), rng.uniform(1.0, 5.0), rng.uniform(0.01, 0.3)));
      moved.push_back(i + 1);
    }
    jobs.push_back({i + 1, rng.uniform(50.0, 800.0), rng.uniform(2.0, 30.0),
                    utilities.back().get()});
  }
  OnionPeelingConfig config;
  const TasResult first = onion_peel(jobs, 12, t0, config);
  for (TasJob& job : jobs) job.eta *= 0.99;

  const Seconds t1 = t0 + 3.0;
  PeelReplay replay;
  replay.targets = &first.targets;
  replay.moved = &moved;
  replay.tolerance = 0.05;
  Digest d;
  for (const bool hinted : {false, true}) {
    OnionPeelingConfig replayed = config;
    replayed.replay = &replay;
    if (hinted) replayed.warm_hint = &first.hint;
    const TasResult r = onion_peel(jobs, 12, t1, replayed);
    EXPECT_EQ(r.replayed_layers, 8) << "hinted " << hinted;
    add_tas(d, r);
  }
  EXPECT_EQ(d.get(), 0xe232ed7cb7e1eb4eULL) << "now " << hex(d.get());
}

TEST(PeelGolden, ReplayPrefixThenDegenerateLayers) {
  // A replayed prefix that ends inside a run of ConstantUtility(1.0) layers:
  // the certificate probes level 1.0 over the remaining jobs, and the first
  // re-peeled layers are degenerate (cap 1.0 at feasible level 1.0), so each
  // probes level 1.0 again over the moving jobs alone.
  Rng rng(74);
  const Seconds t0 = rng.uniform(0.0, 100.0);
  Instance inst = make_instance(Shape::kHalfConstant, 200, t0, 0.0, rng);
  for (std::size_t i = 0; i < inst.jobs.size(); ++i) {
    // A tenth of the demand keeps every layer above level 0: a zero-level
    // layer re-prices at the horizon to a tiny positive level, which gives
    // every later zero-level layer a finite, earlier deadline.  A step job re-prices to its full weight (its completion sits at the
    // budget), which lifts the replayed climb above the first peel's levels
    // and fails the certificate; linear curves re-price to their level.
    if (i % 9 == 0) {
      inst.utilities[i] = std::make_unique<ConstantUtility>(1.0);
    } else if (dynamic_cast<const StepUtility*>(inst.utilities[i].get()) != nullptr) {
      inst.utilities[i] = std::make_unique<LinearUtility>(t0 + 300.0, 2.0, 0.01);
    }
    inst.jobs[i].utility = inst.utilities[i].get();
    inst.jobs[i].eta *= 0.1;
  }
  const auto job_of = [&](JobId id) -> const TasJob& {
    return inst.jobs[static_cast<std::size_t>((id - 1) / 3)];
  };
  const auto shared_constant = [&](JobId id) {
    const auto* u = dynamic_cast<const ConstantUtility*>(job_of(id).utility);
    return u != nullptr && u->priority() == 1.0 && job_of(id).eta > 0.0;
  };

  ThreadPool pool(3);
  Digest serial;
  for (ThreadPool* lanes : {static_cast<ThreadPool*>(nullptr), &pool}) {
    std::vector<TasJob> jobs = inst.jobs;
    OnionPeelingConfig config;
    config.pool = lanes;
    // A fixed horizon keeps the replayed levels where the first peel put them.
    config.horizon = t0 + 6000.0;
    const TasResult first = onion_peel(jobs, 48, t0, config);
    // The replay stops at the second layer of the 1.0 run: its job moved.
    std::size_t stop = 0;
    for (std::size_t i = 1; i < first.targets.size() && stop == 0; ++i) {
      if (shared_constant(first.targets[i - 1].id) && shared_constant(first.targets[i].id)) {
        stop = i;
      }
    }
    ASSERT_GT(stop, 0u);
    long prefix = 0;  // layers before `stop`; zero-demand jobs have none
    for (std::size_t i = 0; i < stop; ++i) prefix += job_of(first.targets[i].id).eta > 0.0 ? 1 : 0;
    const std::vector<JobId> moved = {first.targets[stop].id};
    for (TasJob& job : jobs) job.eta *= job.id == moved[0] ? 0.6 : 0.99;
    const Seconds t1 = t0 + 0.25;

    Digest d;
    add_tas(d, first);
    OnionPeelingConfig warm = config;
    warm.warm_hint = &first.hint;
    add_tas(d, onion_peel(jobs, 48, t1, warm));
    PeelReplay replay;
    replay.targets = &first.targets;
    replay.moved = &moved;
    replay.tolerance = 0.05;
    for (const bool hinted : {false, true}) {
      OnionPeelingConfig replayed = hinted ? warm : config;
      replayed.replay = &replay;
      const TasResult r = onion_peel(jobs, 48, t1, replayed);
      EXPECT_EQ(r.replayed_layers, prefix) << "hinted " << hinted;
      EXPECT_EQ(r.targets[stop].utility_level, 1.0) << "hinted " << hinted;
      add_tas(d, r);
    }
    if (lanes == nullptr) {
      serial = d;
      EXPECT_EQ(d.get(), 0xd50a5fe57860f551ULL) << "now " << hex(d.get());
    } else {
      EXPECT_EQ(d.get(), serial.get()) << "pooled";
    }
  }
}

TEST(PeelGolden, ReplayKeepsZeroAndStepLayerLevels) {
  // ReplayPrefixThenDegenerateLayers's set with its full demand and its
  // step curves.  The prefix holds layers peeled at level 0 and step jobs
  // peeled below their weight.  Re-pricing a zero-level layer at the horizon
  // gives a sigmoid a tiny positive level, and a step job's completion at
  // its budget re-prices to its full weight; either lifts the replayed climb
  // above the first peel's levels, and the certificate then failed.
  Rng rng(74);
  const Seconds t0 = rng.uniform(0.0, 100.0);
  Instance inst = make_instance(Shape::kHalfConstant, 200, t0, 0.0, rng);
  for (std::size_t i = 0; i < inst.jobs.size(); i += 9) {
    inst.utilities[i] = std::make_unique<ConstantUtility>(1.0);
    inst.jobs[i].utility = inst.utilities[i].get();
  }
  const auto job_of = [&](JobId id) -> const TasJob& {
    return inst.jobs[static_cast<std::size_t>((id - 1) / 3)];
  };
  const auto shared_constant = [&](JobId id) {
    const auto* u = dynamic_cast<const ConstantUtility*>(job_of(id).utility);
    return u != nullptr && u->priority() == 1.0 && job_of(id).eta > 0.0;
  };
  OnionPeelingConfig config;
  config.horizon = t0 + 6000.0;
  const TasResult first = onion_peel(inst.jobs, 48, t0, config);
  std::size_t stop = 0;
  for (std::size_t i = 1; i < first.targets.size() && stop == 0; ++i) {
    if (shared_constant(first.targets[i - 1].id) && shared_constant(first.targets[i].id)) {
      stop = i;
    }
  }
  ASSERT_GT(stop, 0u);
  int zero_layers = 0;
  int step_layers = 0;
  for (std::size_t i = 0; i < stop; ++i) {
    const TasTarget& t = first.targets[i];
    if (job_of(t.id).eta <= 0.0) continue;
    zero_layers += t.utility_level == 0.0 ? 1 : 0;
    const auto* step = dynamic_cast<const StepUtility*>(job_of(t.id).utility);
    step_layers += step != nullptr && t.utility_level < step->priority() ? 1 : 0;
  }
  ASSERT_GT(zero_layers, 0);
  ASSERT_GT(step_layers, 0);

  std::vector<TasJob> jobs = inst.jobs;
  const std::vector<JobId> moved = {first.targets[stop].id};
  for (TasJob& job : jobs) job.eta *= job.id == moved[0] ? 0.6 : 0.99;
  PeelReplay replay;
  replay.targets = &first.targets;
  replay.moved = &moved;
  replay.tolerance = 0.05;
  for (const bool hinted : {false, true}) {
    OnionPeelingConfig replayed = config;
    replayed.replay = &replay;
    if (hinted) replayed.warm_hint = &first.hint;
    const TasResult r = onion_peel(jobs, 48, t0, replayed);
    EXPECT_GT(r.replayed_layers, 0) << "hinted " << hinted;
    for (std::size_t i = 0; i < static_cast<std::size_t>(r.replayed_layers); ++i) {
      // A zero-level layer stays at 0 and no replayed layer climbs more
      // than one search tolerance above the first peel's level.
      const Utility level = first.hint[i].level;
      EXPECT_EQ(r.hint[i].id, first.hint[i].id) << "layer " << i;
      EXPECT_LE(r.hint[i].level, level * (1.0 + config.tolerance))
          << "hinted " << hinted << " layer " << i;
    }
    EXPECT_TRUE(audit_tas(r, jobs, 48, t0).ok()) << "hinted " << hinted;
  }
}

// ---------------------------------------------------------------------------
// onion_peel tie-breaks: equal level caps, identical fixed entries, moving
// and fixed jobs on one binding or bottleneck deadline, hints and replayed
// layers that name departed and zero-demand jobs
// ---------------------------------------------------------------------------

struct TieBreakCase {
  const char* name;
  Shape shape;
  int jobs;
  ContainerCount capacity;
  int section_probes;
  std::uint64_t seed;
  /// Explicit horizon after t0 (0 = automatic).
  Seconds horizon_after;
  /// Rescale the etas so the demand exactly fills the supply up to the
  /// explicit horizon's latest deadline, at t0 and again at t1: level 0
  /// then binds at horizon - min R_i, where constant and clamped jobs meet.
  bool fill_horizon;
  std::uint64_t cold;
  std::uint64_t drifted;
  std::uint64_t warm;
  std::uint64_t replay;
};

PeelDigests run_tie_break(const TieBreakCase& c, ThreadPool* pool) {
  Rng rng(c.seed);
  const Seconds t0 = rng.uniform(0.0, 100.0);
  const Seconds horizon = c.horizon_after > 0.0 ? t0 + c.horizon_after : 0.0;
  Instance inst = make_instance(c.shape, c.jobs, t0, horizon, rng);
  if (c.fill_horizon) fill_to_horizon(inst.jobs, c.capacity, t0, horizon);

  OnionPeelingConfig config;
  config.section_probes = c.section_probes;
  config.horizon = horizon;
  config.pool = pool;
  const TasResult first = onion_peel(inst.jobs, c.capacity, t0, config);

  // One event later: about one job in eight has departed and one in eight
  // has drained to zero demand, while the first peel's hint and layers
  // still name them; one in ten moves beyond the replay tolerance and the
  // rest drain with jitter.
  const Seconds t1 = t0 + rng.uniform(1.0, 8.0);
  std::vector<TasJob> jobs;
  std::vector<JobId> moved;
  for (TasJob job : inst.jobs) {
    const auto fate = rng.uniform_int(0, 39);
    if (fate < 5) continue;
    if (fate < 10) {
      job.eta = 0.0;
    } else if (fate < 14 && job.eta > 0.0) {
      job.eta *= rng.uniform(0.5, 0.8);
      moved.push_back(job.id);
    } else {
      job.eta *= rng.uniform(0.98, 1.0);
    }
    jobs.push_back(job);
  }
  if (c.fill_horizon) fill_to_horizon(jobs, c.capacity, t1, horizon);

  // ids ascend with job index, so `moved` is already sorted
  return digest_legs(c.name, first, jobs, c.capacity, t1, config, moved);
}

const TieBreakCase kTieBreakCases[] = {
    // name, shape, jobs, capacity, k, seed, horizon after t0, fill,
    // cold, drifted, warm, replay
    {"equal-caps-60-k4", Shape::kEqualCaps, 60, 16, 4, 81, 0.0, false,
     0x92d0206eafdce0d1, 0x27ad95ea7a872475,
     0x8e8934eee66c08ab, 0xbf49d32cd86efb73},
    {"equal-caps-200-k1", Shape::kEqualCaps, 200, 48, 1, 82, 0.0, false,
     0xa26a663744976b45, 0x865dd423a428b1aa,
     0xca654bfb4f509646, 0x6a173a12a7bf7a64},
    {"equal-caps-120-k4-horizon", Shape::kEqualCaps, 120, 32, 4, 83, 4000.0, false,
     0x8f36f77259181cae, 0x1951fb2d638fc3f2,
     0x8513d3cc9d795604, 0x4c68378cd4e00392},
    {"shared-deadlines-60-k4", Shape::kSharedDeadlines, 60, 16, 4, 84, 3000.0, true,
     0xb2f80a54c4e9748a, 0xf7c08d3ca819b884,
     0x6d1cf152331b63e2, 0xba08fc7818cdec3d},
    {"shared-deadlines-200-k1", Shape::kSharedDeadlines, 200, 48, 1, 85, 3000.0, true,
     0x262b2e94cdc33fe6, 0xcecaf700ec899c59,
     0xd18a82ee504a96e7, 0xd18a82ee504a96e7},
    {"shared-deadlines-120-k4-slack", Shape::kSharedDeadlines, 120, 32, 4, 86, 3000.0, false,
     0x99e399d40c8b68e9, 0xd78fcf8a385f3bf9,
     0x67e2d573df6c4440, 0xa560c6ffbafe1337},
};

/// Three jobs on one container whose bottleneck probe finds a fixed and a
/// moving job at the violated deadline.  A (constant) and B (a sigmoid
/// whose deadline sits at the horizon below level ~4.97) share the deadline
/// H - 10; the demand fills the supply up to H - 5.  At level 0 the step
/// job D also sits at the horizon (H - 5) and everything fits; at any
/// positive level D moves to its budget, so the demand due by H - 10 is the
/// whole demand and that deadline is the first violated.  The latest
/// deadline inside the violating prefix is then A's and B's.
TasResult peel_bottleneck_tie(bool moving_first, int section_probes, Seconds now,
                              const PeelHint* hint, ThreadPool* pool) {
  const Seconds t0 = 10.0;
  const Seconds horizon = t0 + 1000.0;
  ConstantUtility a(1.0);
  SigmoidUtility b(horizon + 5000.0, 5.0, 0.001);
  StepUtility step(t0 + 980.0, 2.0);
  std::vector<TasJob> jobs = {{1, 400.0, 10.0, &a}, {2, 300.0, 10.0, &b}, {3, 295.0, 5.0, &step}};
  if (moving_first) std::swap(jobs[0], jobs[1]);
  fill_to_horizon(jobs, 1, now, horizon);
  OnionPeelingConfig config;
  config.section_probes = section_probes;
  config.horizon = horizon;
  config.pool = pool;
  config.warm_hint = hint;
  return onion_peel(jobs, 1, now, config);
}

TEST(PeelGolden, IndexTieBreakDigestsAreFrozen) {
  ThreadPool pool(3);
  for (const TieBreakCase& c : kTieBreakCases) {
    for (ThreadPool* lanes : {static_cast<ThreadPool*>(nullptr), &pool}) {
      const PeelDigests got = run_tie_break(c, lanes);
      const std::string label = std::string(c.name) + (lanes != nullptr ? " pooled" : "");
      EXPECT_EQ(got.cold, c.cold) << label << " cold: now " << hex(got.cold);
      EXPECT_EQ(got.drifted, c.drifted) << label << " drifted: now " << hex(got.drifted);
      EXPECT_EQ(got.warm, c.warm) << label << " warm: now " << hex(got.warm);
      EXPECT_EQ(got.replay, c.replay) << label << " replay: now " << hex(got.replay);
    }
  }

  // The bottleneck tie goes to the job first in the input, fixed or moving,
  // cold and warm, serial and pooled.
  Digest serial;
  Digest pooled;
  for (const bool moving_first : {false, true}) {
    for (const int k : {1, 4}) {
      for (ThreadPool* lanes : {static_cast<ThreadPool*>(nullptr), &pool}) {
        const TasResult first = peel_bottleneck_tie(moving_first, k, 10.0, nullptr, lanes);
        const TasResult warm = peel_bottleneck_tie(moving_first, k, 12.5, &first.hint, lanes);
        const TasResult cold = peel_bottleneck_tie(moving_first, k, 12.5, nullptr, lanes);
        const JobId expected = moving_first ? 2 : 1;
        EXPECT_EQ(first.targets.front().id, expected) << "moving first " << moving_first;
        EXPECT_EQ(warm.targets.front().id, expected) << "moving first " << moving_first;
        Digest cold_targets;
        Digest warm_targets;
        add_targets(cold_targets, cold);
        add_targets(warm_targets, warm);
        EXPECT_EQ(cold_targets.get(), warm_targets.get()) << "moving first " << moving_first;
        Digest& d = lanes == nullptr ? serial : pooled;
        add_tas(d, first);
        add_tas(d, warm);
        add_tas(d, cold);
      }
    }
  }
  EXPECT_EQ(serial.get(), 0xf1f1be734dbf43abULL) << "bottleneck tie: now " << hex(serial.get());
  EXPECT_EQ(pooled.get(), serial.get()) << "bottleneck tie pooled";
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
    // In three of its passes a layer of the replayed prefix re-prices off a
    // flat stretch and the lifted prefix fails its certificate; the retry at
    // the stored levels certifies them (refrozen with that retry).
    {"replay-60", 60, 40, 24, 102, true, 0.08, false, true, true,
     0x2c0112a04a112a6d},
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
