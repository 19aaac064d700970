// Onion peeling — Algorithm 3 of the paper.
//
// Solves the Time-Aware Scheduling (TAS) problem: given each job's robust
// demand eta_i (from WCDE) and utility function, find target completion
// times that lexicographically maximise the sorted utility vector.  Each
// "layer" searches the utility level L by k-section (the paper's bisection
// generalised to k interior probes per round, so the round's probes can run
// concurrently); feasibility of a level is the preemptive-EDF capacity
// condition of Theorem 2.  The job that blocks further improvement (the
// bottleneck) is fixed at the layer's utility and removed, and the search
// continues with the rest.
//
// Deviation from the printed pseudocode (documented in DESIGN.md §5): the
// paper's check only walks constraints at *remaining* jobs' deadlines with
// the reservation function G_t.  That misses violations at already-peeled
// jobs' deadlines when a later layer pulls an active job's deadline across a
// peeled one.  We evaluate the full EDF condition over the union of active
// and peeled jobs, which is both necessary and sufficient for the
// container-seconds model.

#pragma once

#include <vector>

#include "src/common/types.h"
#include "src/utility/utility_function.h"

namespace rush {

class ThreadPool;

/// One job as seen by the TAS solver.
struct TasJob {
  JobId id = kInvalidJob;
  /// Robust remaining demand eta_i in container-seconds (WCDE output).
  ContainerSeconds eta = 0.0;
  /// Average container holding time of one task, R_i (seconds).
  Seconds avg_task_runtime = 1.0;
  /// Utility of the job's absolute completion time.  Not owned; must
  /// outlive the call.
  const UtilityFunction* utility = nullptr;
};

/// One layer of a previous pass's peel, used to warm-start the next pass.
/// Consecutive replans differ by a single observation, so the layer's
/// solution barely moves — but in the right coordinates.  Utility *levels*
/// drift with every tick (the curves are functions of absolute time, so as
/// `now` advances a fixed level buys less slack), while the layer's target
/// *completion time* is an absolute quantity that stays put when demand and
/// supply shrink together.  The hint therefore stores both: the completion
/// time is re-priced through the job's utility curve at the next pass to
/// recover a fresh level estimate, and the raw level is the fallback when
/// re-pricing is impossible (zero-utility layers).  Slack-valued probes
/// root-find from the estimate (Newton in deadline space, with false-
/// position and bisection fallbacks), and the certified bracket then
/// answers most of an exact replay of the cold k-section grid by
/// monotonicity — so the warm layer reproduces the cold layer's level,
/// deadline, and bottleneck bit-for-bit with a fraction of the probes
/// (DESIGN.md §5d).
struct PeelHintEntry {
  /// Job peeled in this layer last pass.  A hint whose job is no longer
  /// active (finished, or drained to zero demand) is skipped, re-aligning
  /// the remaining hints with the surviving layers.
  JobId id = kInvalidJob;
  /// Utility level L_f the layer was peeled at.
  Utility level = 0.0;
  /// Absolute target completion time of the peeled job (< 0 when unknown).
  Seconds completion = -1.0;
};

/// Per-layer hints in peel order (layer 0 first); `TasResult::hint` of one
/// pass is the `OnionPeelingConfig::warm_hint` of the next.
using PeelHint = std::vector<PeelHintEntry>;

/// Per-job outcome of the peeling.
struct TasTarget {
  JobId id = kInvalidJob;
  /// Deadline handed to the slot mapper (already compensated by R_i when
  /// OnionPeelingConfig::compensate_runtime is set — Theorem 3).
  Seconds mapping_deadline = 0.0;
  /// Projected completion time shown to users (mapping_deadline + R_i under
  /// compensation; the Theorem 3 bound makes this achievable).
  Seconds target_completion = 0.0;
  /// The utility level L_f of the layer in which the job was peeled.
  Utility utility_level = 0.0;
  /// Layer number (0 = worst-off layer), i.e. peel order.
  int layer = 0;
  /// True when even the target completion yields zero utility — the "red
  /// row" in the RUSH web UI (Fig 2): the job cannot meet any useful
  /// deadline and the user should resubmit its requirements.
  bool impossible = false;
};

/// Layer replay across passes (DESIGN.md §5h) — the "skipped layers"
/// extension of the warm-hint machinery.  Where a warm hint only makes a
/// layer's search cheaper (and is bit-exact within the pass), replay skips
/// the search entirely for a prefix of layers carried over from the
/// previous pass's TasResult: each replayed layer keeps its peeled job and
/// re-prices its level through the stored absolute completion time, and
/// one feasibility probe certifies the whole replayed prefix against the
/// current demand before it is committed (infeasible => the replay is
/// abandoned and the pass peels cold/warm from scratch).  Re-pricing on a
/// flat stretch of a curve (a zero-level layer at the horizon, a step job
/// at its budget) would lift the level by more than the search tolerance;
/// a prefix with such a layer that fails its certificate is rebuilt once
/// with those layers at their stored levels and certified again.  Replay stops at
/// the first layer whose membership can change: the first layer whose job
/// is in `moved` (its eta drifted beyond tolerance), and it never starts
/// when a job active now was absent from the previous pass (an arrival
/// changes every layer's constraint set).  Departed jobs' layers are
/// skipped — their demand leaving only loosens the EDF constraints.
///
/// Replayed levels deviate from a cold re-peel by at most the tolerance
/// regime that triggered the replan, never by feasibility: the certificate
/// probe and the re-peeled suffix keep the full EDF condition of Theorem 2
/// intact (audit_tas holds on replayed results).  Replay therefore only
/// fires at a positive tolerance; at tolerance 0 the peel is bit-identical
/// to the cold path because this machinery stays off.
struct PeelReplay {
  /// Previous pass's targets in peel order (TasResult::targets).  Not
  /// owned; must outlive the call.
  const std::vector<TasTarget>* targets = nullptr;
  /// Ids (sorted ascending) whose eta moved beyond the tolerance since the
  /// previous pass.  nullptr means "nothing moved".
  const std::vector<JobId>* moved = nullptr;
  /// The eta-drift tolerance that classified `moved`; replay is disabled
  /// unless it is positive (tolerance 0 promises bit-exactness, which
  /// re-priced levels cannot provide).
  double tolerance = 0.0;
};

struct OnionPeelingConfig {
  /// Search tolerance Delta on the utility level.
  double tolerance = 1e-3;
  /// Scheduling horizon (absolute seconds).  <= 0 means "choose
  /// automatically": now + 2*(total demand / capacity + max R_i) + 1, which
  /// always makes the zero-utility level feasible.
  Seconds horizon = 0.0;
  /// Shrink each deadline by R_i so the slot mapper's T_i + R_i stretch
  /// (Theorem 3) still lands inside the intended completion time.
  bool compensate_runtime = true;
  /// Interior probe levels evaluated per search round.  1 is the paper's
  /// plain bisection; k probes shrink the bracket by (k+1)x per round, so
  /// larger values trade more total probes for fewer *dependent* rounds —
  /// the round's probes are independent of each other and run concurrently
  /// on `pool`.  The probe schedule depends only on the bracket, never on
  /// the pool, so the peel result is identical at any thread count.
  int section_probes = 4;
  /// Optional worker pool for the per-round probes.  nullptr evaluates the
  /// same schedule serially with bit-identical results.  Not owned.
  ThreadPool* pool = nullptr;
  /// Optional warm start from the previous pass's `TasResult::hint` (not
  /// owned; may be nullptr for a cold search).  The hinted search only
  /// *discovers* the bracket cheaply; the layer's final bracket always
  /// comes from an exact replay of the cold k-section grid, so a warm peel
  /// is bit-identical to the cold peel at any hint quality — a stale hint
  /// costs probes, never accuracy.
  const PeelHint* warm_hint = nullptr;
  /// Optional layer replay from the previous pass (see PeelReplay; not
  /// owned; may be nullptr for a full peel).
  const PeelReplay* replay = nullptr;
};

struct TasResult {
  /// Targets in peel order (layer 0 first).
  std::vector<TasTarget> targets;
  /// The horizon actually used.
  Seconds horizon = 0.0;
  /// Number of bisection feasibility probes performed (benchmark aid).
  long probes = 0;
  /// Per-layer (job, level) of this pass, in peel order — feed it back as
  /// `OnionPeelingConfig::warm_hint` to warm-start the next pass.  Zero-
  /// demand jobs peel without a search and are not recorded.
  PeelHint hint;
  /// Layers whose bracket collapsed within tolerance directly from the
  /// warm hint's root-finding probes, leaving the grid replay almost
  /// nothing to probe.
  long warm_layers = 0;
  /// Layers replayed verbatim from the previous pass (PeelReplay) instead
  /// of being re-peeled — zero probes each beyond the certificate probe
  /// for the whole prefix (two when the flat-stretch retry runs).
  long replayed_layers = 0;
};

/// Runs the onion peeling algorithm.
///
/// @param jobs      active jobs with positive remaining demand (eta <= 0
///                  jobs are peeled immediately at `now`)
/// @param capacity  cluster capacity C in containers
/// @param now       current absolute time; all demand must be served after it
TasResult onion_peel(const std::vector<TasJob>& jobs, ContainerCount capacity,
                     Seconds now, const OnionPeelingConfig& config = {});

}  // namespace rush
