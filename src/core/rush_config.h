// Tunables of the RUSH scheduler (paper Table I and §IV).

#pragma once

#include <cstddef>
#include <string>

#include "src/common/units.h"
#include "src/estimator/distribution_estimator.h"

namespace rush {

struct RushConfig {
  /// Completion-probability requirement theta in (0,1): each job must
  /// receive at least its v_i demand with this probability, under the worst
  /// case distribution (constraint (3)).  Kept a bare double — this struct
  /// is the public config surface, assigned from parsed flags and literals
  /// everywhere; the typed view is theta_level() below.
  double theta = 0.9;  // rushlint: unit-ok(public config surface; typed accessor theta_level())

  /// Entropy threshold delta: KL ball radius around the reference
  /// distribution.  The paper's Fig 3 recommends >= 0.7 until estimates
  /// mature.  delta = 0 disables robustness (trust phi outright).
  /// Bare double for the same reason as theta; delta_for() is typed.
  double delta = 0.7;  // rushlint: unit-ok(public config surface; typed accessor delta_for())

  /// When true, delta shrinks as a job accumulates runtime samples
  /// (delta * sqrt(full_trust_samples / samples), floored at delta_min) —
  /// the "more samples allow a smaller entropy threshold" observation in
  /// §V-A, made concrete.
  bool adaptive_delta = false;
  std::size_t full_trust_samples = 35;
  double delta_min = 0.05;  // rushlint: unit-ok(public config surface; consumed via delta_for())

  /// Demand PMF resolution (number of quantisation bins).
  std::size_t bins = 256;

  /// Onion peeling bisection tolerance Delta on the utility level.
  double peel_tolerance = 1e-3;

  /// Warm-starts each onion-peeling layer from the previous pass's peel
  /// level (DESIGN.md §5d).  Consecutive replans differ by one observation,
  /// so the previous level brackets the new one within ~tolerance; each
  /// layer root-finds from its hint with slack-valued probes and then
  /// replays the cold k-section grid exactly, answering most grid levels by
  /// monotonicity — so warm plans are bit-identical to cold plans (levels,
  /// deadlines, bottlenecks) at several times fewer probes.  Only the probe
  /// counters (Plan::peel_probes, PlanStats) differ, and they depend on the
  /// planner's pass history: a fresh planner's first pass is cold.  Off =
  /// the cold k-section on every pass, the reference the warm path is
  /// checked against (tests/peel_warm_start_test.cc, bench/e2e_profile).
  bool warm_start_peeling = true;

  /// Shrink deadlines by R_i so the Theorem 3 stretch stays within target.
  bool compensate_runtime = true;

  /// Replan elision (DESIGN.md §5h): before a planning pass, the scheduler
  /// re-derives the robust demand eta_i of exactly the jobs whose demand
  /// snapshot went stale since the cached plan (the PR-4 stale set — O(jobs
  /// with new samples), cache-assisted), and skips the pass when every
  /// planner input the cached plan consumed is unchanged within
  /// replan_eta_tolerance; the cached Plan then serves the wave.  On by
  /// default: at the default tolerance 0 the gate accepts only bit-equal
  /// inputs at the cached plan's own timestamp, so an elided wave is
  /// provably byte-identical to replanning (planner determinism over
  /// identical inputs — tests/replan_elision_test.cc holds traces, metrics
  /// and utilities to it across a 50-seed matrix).  Off = the always-replan
  /// reference the differential harness compares against.
  bool replan_elision = true;

  /// Eta drift the elision gate tolerates, relative with a one-container-
  /// second floor (src/robust/eta_drift.h).  0 = exact: elide only waves
  /// whose inputs and timestamp are unchanged.  Positive values elide
  /// across time while no stale job's eta (or mean task runtime) drifted
  /// beyond the tolerance since the cached plan — planning cost becomes
  /// proportional to change at a bounded, audited utility deviation — and
  /// also arm layer replay inside the peel (PeelReplay).  Bare double:
  /// public config surface, dimensionless ratio.
  double replan_eta_tolerance = 0.0;

  /// Distribution estimator class per job: "mean", "gaussian", "bootstrap",
  /// "ewma".
  std::string estimator_kind = "gaussian";

  /// Extension (DESIGN.md §5): estimate map and reduce demand with separate
  /// per-phase moments instead of one pooled estimator — avoids
  /// underestimating reduce-heavy jobs as they cross the barrier.
  bool phase_aware_estimation = false;

  /// Fallback runtime assumptions for jobs with too few samples.
  EstimatorPrior prior = {};

  /// Execution lanes for the per-job WCDE fan-out of a planning pass
  /// (DESIGN.md §5c).  1 = the serial reference path (no pool is created);
  /// 0 = one lane per hardware thread; >= 2 = a fixed-size pool of that many
  /// lanes.  The resulting Plan is bit-for-bit identical for every value —
  /// results are merged back in job order — so this is purely a latency
  /// knob.
  int planner_threads = 1;

  /// Memoizes WCDE solves keyed on (PMF fingerprint, theta, delta) so jobs
  /// whose demand did not change between consecutive passes — the common
  /// case, since a container event touches one job — skip the bisection
  /// entirely.  Hits are verified bit-exact before being trusted, so the
  /// plan is identical with the cache on or off.  Also gates the planner's
  /// identity memo in front of the cache, which reuses a job's result while
  /// its demand snapshot object and KL radius are unchanged.
  bool wcde_cache = true;

  /// Cache entries kept before least-recently-used eviction.
  std::size_t wcde_cache_capacity = 4096;

  /// Routes the jobs that still need a WCDE solve after the cache probe —
  /// the dirty set of the pass — through the batched SoA kernel
  /// (solve_wcde_batch, DESIGN.md §5i): one shared PMF arena, all
  /// bisections advanced in lockstep, singleton groups falling back to the
  /// scalar solver.  The kernel is bit-identical to solve_wcde (audited per
  /// row in DCHECK/audit builds), so this is purely a latency knob; off =
  /// the per-job scalar reference path.
  bool wcde_batch = true;

  /// Runs the invariant auditor (src/check) on every planning pass — WCDE
  /// robustness, onion-peeling EDF feasibility and slot-mapping queue
  /// occupation — and throws InternalError on any violation.  Always on in
  /// RUSH_DCHECK builds; this flag additionally enables it at runtime in
  /// release builds (integration tests, canary deployments).
  bool audit_invariants = false;

  /// The coverage requirement as a dimension-checked probability — what the
  /// planner hands to WCDE.
  Probability theta_level() const { return Probability(theta); }

  /// Effective entropy threshold for a job with `samples` completed tasks.
  KlRadius delta_for(std::size_t samples) const;

  /// Validates ranges; throws InvalidInput.
  void validate() const;
};

}  // namespace rush
