#include "src/tas/onion_peeling.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "src/common/error.h"
#include "src/common/thread_pool.h"
#include "src/common/units.h"

namespace rush {
namespace {

constexpr Seconds kUnreachable = -std::numeric_limits<Seconds>::infinity();
constexpr Seconds kNoViolation = std::numeric_limits<Seconds>::infinity();
constexpr double kEdfSlack = 1e-9;
constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

/// (deadline, demand) pairs of the moving active jobs at some probed level.
/// The pair's lexicographic operator< is the EDF sort key.
using DeadlineDemand = std::vector<std::pair<Seconds, ContainerSeconds>>;

/// What every probe of one onion_peel call shares.
struct PeelContext {
  ContainerCount capacity = 0;
  Seconds now = 0.0;
  Seconds horizon = 0.0;
  bool compensate = true;
  /// No `due` an EDF walk of this call computes exceeds this (see
  /// onion_peel), so a walk stops once the supply reaches it.
  units::ContainerSeconds demand_bound{0.0};
};

/// The EDF constraints that no probe moves, in one deadline-sorted vector:
/// the active jobs whose deadline is the same at every level a probe can ask
/// for (ConstantUtility jobs, curves clamped at the horizon) and the jobs
/// fixed in earlier layers (the paper's G_t reservation step function).  A
/// probe merges only its moving jobs' sorted pairs into this, so it inverts,
/// sorts and repairs the order of the moving jobs alone.
///
/// Order: by deadline; within a deadline, the fixed active entries by eta,
/// then the peeled entries in the order they were peeled.  The active
/// entries' (deadline, eta) order lets a probe add load in exactly the
/// order a sort of all active jobs would; the walk folds the peeled demand
/// left to right in this order, so neither sum depends on which jobs are
/// moving (tests/peel_golden_test.cc pins both).
class EdfTimeline {
 public:
  struct Entry {
    Seconds deadline;
    ContainerSeconds eta;
    /// Demand this entry adds to the active load: eta for an active job,
    /// 0 for a peeled one (x + 0.0 == x for the non-negative loads).
    ContainerSeconds active_eta;
    /// Demand this entry adds to the peeled load: eta for a peeled job, 0
    /// for an active one.
    ContainerSeconds peeled_eta;
  };

  /// Starts the timeline from the fixed-deadline active jobs' pairs; any
  /// order, sorted here.
  void assign_active(DeadlineDemand fixed) {
    std::sort(fixed.begin(), fixed.end());
    entries_.clear();
    entries_.reserve(fixed.size());
    for (const auto& [deadline, eta] : fixed) entries_.push_back({deadline, eta, eta, 0.0});
  }

  /// Records a job peeled at `deadline`.  A fixed-deadline active job
  /// (`fixed_deadline` is its timeline deadline; kUnreachable for a moving
  /// job) leaves its active entry first.
  void peel(Seconds fixed_deadline, ContainerSeconds eta, Seconds deadline) {
    if (fixed_deadline != kUnreachable) {
      auto it = std::lower_bound(
          entries_.begin(), entries_.end(), fixed_deadline,
          [](const Entry& e, Seconds d) { return e.deadline < d; });
      // Its own entry: same deadline and eta, still active (a peeled
      // entry's active_eta is 0).
      while (it != entries_.end() && it->active_eta != eta) ++it;
      ensure(it != entries_.end(), "EdfTimeline::peel: no active entry to peel");
      entries_.erase(it);
    }
    const auto it = std::upper_bound(
        entries_.begin(), entries_.end(), deadline,
        [](Seconds d, const Entry& e) { return d < e.deadline; });
    entries_.insert(it, Entry{deadline, eta, 0.0, eta});
  }

  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// An entry the deadline-order repair pulled out of its run: its key and
/// its moving-job index.
struct PulledEntry {
  std::pair<Seconds, ContainerSeconds> key;
  std::uint32_t index;
};

/// Caller-owned state of one probe lane.  Owned by exactly one concurrent
/// probe at a time, and its previous contents are reused three ways: the
/// sorted order of the last probe seeds the next probe's sort (consecutive
/// levels move deadlines smoothly, so the order is usually already right
/// and the O(n log n) sort degenerates to an O(n) validation), a probe at
/// the level the lane last completed takes its deadlines and sorted pairs
/// as they are, and the bottleneck step reuses the lane that probed the
/// last infeasible level instead of recomputing every deadline from
/// scratch.  Everything here is indexed by position among the *moving*
/// jobs.
struct ProbeScratch {
  /// (deadline, eta) of the moving jobs, sorted — what the EDF walk merges
  /// into the timeline.
  DeadlineDemand pairs;
  /// Moving-job indices in the order `pairs` was last built: always a
  /// permutation of [0, order.size()).  It survives across layers —
  /// erase_moving() remaps it when a moving job is peeled — so a new
  /// layer's first probe repairs the previous layer's order instead of
  /// sorting from scratch.
  std::vector<std::uint32_t> order;
  /// Merge-repair buffers: the entries pulled out of order, and the merge
  /// targets swapped into `pairs` and `order`.
  std::vector<PulledEntry> pulled;
  DeadlineDemand merged_pairs;
  std::vector<std::uint32_t> merged_order;
  /// Deadline per moving index at `level` (kUnreachable allowed).
  std::vector<Seconds> deadlines;
  /// Level this lane last probed, and the layer it was probed in.
  Utility level = 0.0;
  std::uint64_t layer_epoch = static_cast<std::uint64_t>(-1);
  /// First moving index whose deadline was unreachable (kNoIndex if none);
  /// when set, `deadlines` past it and `pairs` are not populated.
  std::size_t first_unreachable = kNoIndex;
  /// Every moving job's deadline at `level` is in `deadlines`, and `pairs`
  /// holds them sorted along `order`.  Peels keep this true
  /// (erase_moving); a probe over another job set must clear it.
  bool complete = false;
};

/// Keeps a lane valid when moving index `erased` leaves a moving set of `n`
/// jobs: drops the index from the deadline order and shifts the later ones
/// down, preserving the relative order of the rest in one O(n) pass, and a
/// complete lane drops the job's deadline and sorted pair too, so a probe
/// at the same level can reuse them.  A lane built over a different set (an
/// unused lane) is cleared instead; the next probe rebuilds it.
void erase_moving(ProbeScratch& lane, std::size_t n, std::size_t erased) {
  std::vector<std::uint32_t>& order = lane.order;
  if (order.size() != n) {
    order.clear();
    lane.complete = false;
    return;
  }
  const bool complete = lane.complete;
  std::size_t w = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint32_t i = order[j];
    if (i == erased) continue;
    if (complete) lane.pairs[w] = lane.pairs[j];
    order[w++] = i > erased ? i - 1 : i;
  }
  order.resize(w);
  if (complete) {
    lane.pairs.resize(w);
    lane.deadlines.erase(lane.deadlines.begin() + static_cast<std::ptrdiff_t>(erased));
  }
}

/// Deadline of job `j` for utility level L, compensated by R_i when asked.
/// Returns kUnreachable when L cannot be achieved at any time >= now.
Seconds deadline_for_level(const TasJob& j, Utility level, const PeelContext& ctx) {
  Seconds d = j.utility->inverse(level, ctx.horizon);
  if (d == kUnreachable) return kUnreachable;
  if (ctx.compensate) d -= j.avg_task_runtime;
  if (d < ctx.now) return kUnreachable;  // cannot finish in the past
  return d;
}

/// Walks the preemptive-EDF condition (Theorem 2 generalised to include
/// peeled jobs) over the moving pairs (sorted by (deadline, eta)) merged
/// into the timeline, and calls check(d, due) after each entry with the
/// total demand due by its deadline d; stops when check returns false.
/// Active load accumulates in (deadline, eta) order exactly as over a sort
/// of every active job, so `due` at the last entry of a deadline is
/// bit-identical to a walk over distinct deadlines.  The checks made inside
/// a tied deadline see a partial sum of that same non-negative load, so
/// they never exceed the full check: the first violated deadline, the
/// minimum slack and the deadline attaining it are those of the distinct-
/// deadline walk.
template <class Check>
void walk_edf(const DeadlineDemand& moving, const EdfTimeline& timeline, Check&& check) {
  // Dimension-checked walk: demand accumulates in container-seconds — the
  // types make a demand-vs-deadline or count-vs-work mixup a compile error,
  // while every floating-point operation (and its order) matches the raw
  // form bit-for-bit.
  const std::vector<EdfTimeline::Entry>& fixed = timeline.entries();
  units::ContainerSeconds load(0.0);
  units::ContainerSeconds peeled(0.0);
  std::size_t i = 0;
  std::size_t q = 0;
  const std::size_t a = moving.size();
  const std::size_t p = fixed.size();
  while (i < a || q < p) {
    Seconds d;
    if (q == p || (i < a && (moving[i].first < fixed[q].deadline ||
                             (moving[i].first == fixed[q].deadline &&
                              moving[i].second < fixed[q].eta)))) {
      d = moving[i].first;
      load += units::ContainerSeconds(moving[i++].second);
    } else {
      const EdfTimeline::Entry& e = fixed[q++];
      d = e.deadline;
      load += units::ContainerSeconds(e.active_eta);
      peeled += units::ContainerSeconds(e.peeled_eta);
    }
    if (!check(d, load + peeled)) return;
  }
}

/// Every distinct deadline d's total due demand must fit in
/// capacity * (d - now).  Returns the first violated deadline, or
/// kNoViolation when every constraint holds.  The walk stops after the
/// first entry whose supply reaches `bound`: supply never decreases along
/// the walk and no due exceeds the bound, so no later entry can violate.
Seconds edf_violation_within(const DeadlineDemand& moving, const EdfTimeline& timeline,
                             const PeelContext& ctx, units::ContainerSeconds bound) {
  const units::Containers supply_rate(ctx.capacity);
  Seconds violated = kNoViolation;
  walk_edf(moving, timeline, [&](Seconds d, units::ContainerSeconds due) {
    const units::ContainerSeconds supply = supply_rate * units::Seconds(d - ctx.now);
    if (due > supply + units::ContainerSeconds(kEdfSlack)) {
      violated = d;
      return false;
    }
    return supply < bound;
  });
  return violated;
}

Seconds first_edf_violation(const DeadlineDemand& moving, const EdfTimeline& timeline,
                            const PeelContext& ctx) {
  const Seconds violated = edf_violation_within(moving, timeline, ctx, ctx.demand_bound);
  if constexpr (kDcheckEnabled) {
    const units::ContainerSeconds unbounded(std::numeric_limits<double>::infinity());
    ensure(std::bit_cast<std::uint64_t>(
               edf_violation_within(moving, timeline, ctx, unbounded)) ==
               std::bit_cast<std::uint64_t>(violated),
           "first_edf_violation: the demand bound changed the first violation");
  }
  return violated;
}

/// Rebuilds scratch.pairs sorted by (deadline, eta).  Elements comparing
/// equal under that key carry identical values, so every correct sort of it
/// yields bit-identical pairs and EDF load sums — the order among ties is
/// unobservable.  The previous probe's order is repaired, not re-sorted:
/// one walk keeps the entries that extend a non-decreasing run and pulls
/// the ones that break it (at an inversion both the run's tail and the
/// newcomer are pulled, so one displaced job costs two pulls whichever way
/// it moved), then only the m pulled entries are sorted and merged back —
/// O(n + m log m), and an already-sorted order is a single O(n) walk.
/// Deadline order changes between probes only where two inverse-utility
/// curves cross, so m stays small.
void sort_deadlines(const std::vector<const TasJob*>& moving, ProbeScratch& scratch) {
  const std::size_t n = moving.size();
  std::vector<std::uint32_t>& order = scratch.order;
  if (order.size() != n) {
    order.resize(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  }
  // Gather the keys in the previous order; the repair then compares
  // contiguous pairs instead of chasing indices.
  DeadlineDemand& pairs = scratch.pairs;
  pairs.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint32_t i = order[j];
    pairs[j] = {scratch.deadlines[i], moving[i]->eta};
  }
  std::vector<PulledEntry>& pulled = scratch.pulled;
  pulled.clear();
  std::size_t kept = 0;  // [0, kept) of pairs/order is the non-decreasing run
  for (std::size_t j = 0; j < n; ++j) {
    if (kept > 0 && pairs[j] < pairs[kept - 1]) {
      --kept;
      pulled.push_back({pairs[kept], order[kept]});
      pulled.push_back({pairs[j], order[j]});
    } else {
      pairs[kept] = pairs[j];
      order[kept] = order[j];
      ++kept;
    }
  }
  if (pulled.empty()) return;
  std::sort(pulled.begin(), pulled.end(),
            [](const PulledEntry& a, const PulledEntry& b) { return a.key < b.key; });
  DeadlineDemand& merged_pairs = scratch.merged_pairs;
  std::vector<std::uint32_t>& merged_order = scratch.merged_order;
  merged_pairs.resize(n);
  merged_order.resize(n);
  std::size_t a = 0;
  std::size_t b = 0;
  for (std::size_t w = 0; w < n; ++w) {
    if (b < pulled.size() && (a == kept || pulled[b].key < pairs[a])) {
      merged_pairs[w] = pulled[b].key;
      merged_order[w] = pulled[b++].index;
    } else {
      merged_pairs[w] = pairs[a];
      merged_order[w] = order[a++];
    }
  }
  pairs.swap(merged_pairs);
  order.swap(merged_order);
}

/// Minimum EDF slack over every constraint: min over deadlines d of
/// capacity * (d - now) - due(d).  The level is feasible exactly when the
/// minimum stays above -kEdfSlack — the same comparisons first_edf_violation
/// makes, just without the early exit at a violation — and its magnitude
/// tells the warm-start root finder how far the probed level sits from
/// binding.  `binding` receives the deadline attaining the minimum.  The
/// walk stops once supply - bound exceeds the minimum: supply never
/// decreases along the walk, no due exceeds the bound and rounding is
/// monotone, so every later slack is larger still.
double edf_min_slack_within(const DeadlineDemand& moving, const EdfTimeline& timeline,
                            const PeelContext& ctx, units::ContainerSeconds bound,
                            Seconds& binding) {
  // The slack (supply minus demand) is itself a ContainerSeconds quantity
  // until the very last unwrap for the caller's root finder.
  const units::Containers supply_rate(ctx.capacity);
  double min_slack = std::numeric_limits<double>::infinity();
  binding = kNoViolation;
  walk_edf(moving, timeline, [&](Seconds d, units::ContainerSeconds due) {
    const units::ContainerSeconds supply = supply_rate * units::Seconds(d - ctx.now);
    const double slack = (supply - due).value();
    if (slack < min_slack) {
      min_slack = slack;
      binding = d;
    }
    return (supply - bound).value() <= min_slack;
  });
  return min_slack;
}

double edf_min_slack(const DeadlineDemand& moving, const EdfTimeline& timeline,
                     const PeelContext& ctx, Seconds& binding) {
  const double min_slack =
      edf_min_slack_within(moving, timeline, ctx, ctx.demand_bound, binding);
  if constexpr (kDcheckEnabled) {
    Seconds full_binding = kNoViolation;
    const double full = edf_min_slack_within(
        moving, timeline, ctx,
        units::ContainerSeconds(std::numeric_limits<double>::infinity()), full_binding);
    ensure(std::bit_cast<std::uint64_t>(full) == std::bit_cast<std::uint64_t>(min_slack) &&
               std::bit_cast<std::uint64_t>(full_binding) ==
                   std::bit_cast<std::uint64_t>(binding),
           "edf_min_slack: the demand bound changed the minimum slack");
  }
  return min_slack;
}

/// Fills the lane with every moving job's deadline at `level` and sorts
/// them; false (with `first_unreachable` set) when some moving job cannot
/// reach the level.  A lane that last completed this same level already
/// holds exactly that: peels since then only dropped jobs from it
/// (erase_moving), so the probe skips every inverse and the sort.
bool sort_level(const std::vector<const TasJob*>& moving, const PeelContext& ctx,
                Utility level, std::uint64_t layer_epoch, ProbeScratch& scratch) {
  const std::size_t n = moving.size();
  scratch.layer_epoch = layer_epoch;
  if (scratch.complete && scratch.level == level) {
    if constexpr (kDcheckEnabled) {
      ensure(scratch.deadlines.size() == n && scratch.pairs.size() == n &&
                 scratch.order.size() == n,
             "sort_level: reused lane is over another job set");
      for (std::size_t j = 0; j < n; ++j) {
        const std::uint32_t i = scratch.order[j];
        ensure(std::bit_cast<std::uint64_t>(deadline_for_level(*moving[i], level, ctx)) ==
                       std::bit_cast<std::uint64_t>(scratch.deadlines[i]) &&
                   scratch.pairs[j] == std::make_pair(scratch.deadlines[i], moving[i]->eta),
               "sort_level: reused lane differs from its level's deadlines");
      }
    }
    return true;
  }
  scratch.level = level;
  scratch.first_unreachable = kNoIndex;
  scratch.complete = false;
  scratch.deadlines.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Seconds d = deadline_for_level(*moving[i], level, ctx);
    scratch.deadlines[i] = d;
    if (d == kUnreachable) {
      scratch.first_unreachable = i;
      return false;
    }
  }
  scratch.complete = true;
  sort_deadlines(moving, scratch);
  return true;
}

/// Feasibility of utility level `level`: every moving job gets deadline
/// U^{-1}(level) (compensated); check the EDF condition over those and the
/// timeline.  Pure apart from `scratch`, the caller-owned per-lane buffer —
/// safe to evaluate concurrently with other lanes' probes.
bool probe_level(const std::vector<const TasJob*>& moving, const EdfTimeline& timeline,
                 const PeelContext& ctx, Utility level, std::uint64_t layer_epoch,
                 ProbeScratch& scratch) {
  return sort_level(moving, ctx, level, layer_epoch, scratch) &&
         first_edf_violation(scratch.pairs, timeline, ctx) == kNoViolation;
}

/// Slack-valued variant of probe_level for the warm-start root finder:
/// returns the minimum EDF slack at `level` (-infinity when the level is
/// unreachable for some moving job — `scratch.first_unreachable` then names
/// the job).  `binding` receives the binding deadline (kNoViolation when
/// unreachable).  Fills `scratch` identically to probe_level.
double probe_level_slack(const std::vector<const TasJob*>& moving,
                         const EdfTimeline& timeline, const PeelContext& ctx,
                         Utility level, std::uint64_t layer_epoch,
                         ProbeScratch& scratch, Seconds& binding) {
  if (!sort_level(moving, ctx, level, layer_epoch, scratch)) {
    binding = kNoViolation;
    return -std::numeric_limits<double>::infinity();
  }
  return edf_min_slack(scratch.pairs, timeline, ctx, binding);
}

}  // namespace

TasResult onion_peel(const std::vector<TasJob>& jobs, ContainerCount capacity,
                     Seconds now, const OnionPeelingConfig& config) {
  require(capacity > 0, "onion_peel: capacity must be positive");
  require(config.tolerance > 0.0, "onion_peel: tolerance must be positive");
  require(config.section_probes >= 1, "onion_peel: section_probes must be >= 1");

  TasResult result;
  std::vector<const TasJob*> active;
  // Level cap of each active job — the utility of completing immediately —
  // kept parallel to `active`.  `now` is fixed for the call, so each curve
  // is evaluated once here instead of once per layer.
  std::vector<Utility> cap_of;
  units::ContainerSeconds total_eta(0.0);
  Seconds max_runtime = 0.0;
  int layer = 0;

  for (const TasJob& j : jobs) {
    require(j.utility != nullptr, "onion_peel: job without utility function");
    require(j.avg_task_runtime > 0.0, "onion_peel: non-positive avg task runtime");
    if (j.eta <= 0.0) {
      // Nothing left to schedule: the job completes "now" at its maximal
      // utility and occupies no capacity.
      TasTarget t;
      t.id = j.id;
      t.mapping_deadline = now;
      t.target_completion = now;
      t.utility_level = j.utility->value(now);
      t.layer = layer;
      result.targets.push_back(t);
      continue;
    }
    active.push_back(&j);
    cap_of.push_back(j.utility->value(now));
    total_eta += units::ContainerSeconds(j.eta);
    max_runtime = std::max(max_runtime, j.avg_task_runtime);
  }

  Seconds horizon = config.horizon;
  if (horizon <= now) {
    // Time to drain all demand at full capacity, plus the longest task to
    // settle — doubled for slack.  ContainerSeconds / Containers -> Seconds
    // is the typed form of the old raw division (same fp ops, same order).
    const units::Seconds drain_and_settle =
        total_eta / units::Containers(capacity) + units::Seconds(max_runtime);
    horizon = now + (2.0 * drain_and_settle).value() + 1.0;
  }
  result.horizon = horizon;

  // Every `due` a walk computes is a rounded left fold of a subset of the n
  // non-negative etas summed into total_eta, so (relative rounding unit u =
  // DBL_EPSILON / 2) it is at most exact * (1 + u)^n, while total_eta is at
  // least exact * (1 - u)^n: 4(n+1)·DBL_EPSILON covers the gap with room
  // for the product's own rounding.
  PeelContext ctx;
  ctx.capacity = capacity;
  ctx.now = now;
  ctx.horizon = horizon;
  ctx.compensate = config.compensate_runtime;
  ctx.demand_bound =
      total_eta * (1.0 + 4.0 * static_cast<double>(active.size() + 1) *
                             std::numeric_limits<double>::epsilon());

  // Split the active set once (DESIGN.md §5d).  A job whose deadline is the
  // same at level 0 and at its level cap holds that deadline at every level
  // a probe asks for: inverse is non-increasing and no probe exceeds the
  // layer cap, the smallest cap of any active job.  Such jobs (constant
  // utilities, curves clamped at the horizon) go into the timeline once;
  // probes invert, sort and repair the order of the moving jobs only.  A
  // job unreachable at level 0 stays moving, so probes still name it.
  std::vector<Seconds> fixed_at;  // parallel to `active`; kUnreachable = moving
  std::vector<const TasJob*> moving;
  std::vector<std::uint32_t> moving_at;  // active index of each moving job
  EdfTimeline timeline;
  {
    DeadlineDemand fixed_pairs;
    for (std::size_t i = 0; i < active.size(); ++i) {
      const TasJob& j = *active[i];
      const Seconds d = deadline_for_level(j, 0.0, ctx);
      const bool fixed =
          d != kUnreachable &&
          d == deadline_for_level(j, cap_of[i], ctx);
      fixed_at.push_back(fixed ? d : kUnreachable);
      if (fixed) {
        fixed_pairs.emplace_back(d, j.eta);
      } else {
        moving.push_back(&j);
        moving_at.push_back(static_cast<std::uint32_t>(i));
      }
    }
    timeline.assign_active(std::move(fixed_pairs));
  }

  const int k = config.section_probes;
  // One scratch buffer per probe lane: lane j of a round touches only
  // scratch[j] and level_ok[j], so concurrent probes need no locking.
  std::vector<ProbeScratch> scratch(static_cast<std::size_t>(k));
  std::vector<Utility> levels(static_cast<std::size_t>(k));
  std::vector<unsigned char> level_ok(static_cast<std::size_t>(k));
  // Stamps each lane's stash with the layer that produced it, so the
  // bottleneck step never trusts a leftover from an earlier (larger)
  // active set.
  std::uint64_t layer_epoch = 0;

  // Removes active index `index`, keeping cap_of, fixed_at, the moving
  // list and every lane's deadline order aligned with the shrunken set.
  const auto erase_active = [&](std::size_t index) {
    auto slot = std::lower_bound(moving_at.begin(), moving_at.end(), index);
    if (fixed_at[index] == kUnreachable) {
      const auto m = static_cast<std::size_t>(slot - moving_at.begin());
      for (ProbeScratch& lane : scratch) erase_moving(lane, moving.size(), m);
      moving.erase(moving.begin() + static_cast<std::ptrdiff_t>(m));
      slot = moving_at.erase(slot);
    }
    for (; slot != moving_at.end(); ++slot) --*slot;
    active.erase(active.begin() + static_cast<std::ptrdiff_t>(index));
    cap_of.erase(cap_of.begin() + static_cast<std::ptrdiff_t>(index));
    fixed_at.erase(fixed_at.begin() + static_cast<std::ptrdiff_t>(index));
  };

  // Calls visit(i, d) for each active index i in order, d its deadline at
  // the level `lane` last probed (complete lanes only), until visit returns
  // false.
  const auto for_each_deadline = [&](const ProbeScratch& lane, auto&& visit) {
    std::size_t m = 0;
    for (std::size_t i = 0; i < active.size(); ++i) {
      const Seconds d = fixed_at[i] != kUnreachable ? fixed_at[i] : lane.deadlines[m++];
      if (!visit(i, d)) return;
    }
  };

  const auto feasible = [&](Utility level) {
    ++result.probes;
    return probe_level(moving, timeline, ctx, level, layer_epoch, scratch[0]);
  };

  // Level 0 is always feasible with the automatic horizon: every inverse
  // returns `horizon` (utilities are non-negative) and total demand fits.
  Utility level_feasible = 0.0;
  ensure(feasible(level_feasible), "onion_peel: zero utility level infeasible; horizon too small");

  const auto peel_job = [&](std::size_t index, Utility level) {
    const TasJob& job = *active[index];
    const Seconds d = deadline_for_level(job, level, ctx);
    ensure(d != kUnreachable, "onion_peel: peeling at unreachable level");
    TasTarget t;
    t.id = job.id;
    t.mapping_deadline = d;
    t.target_completion =
        config.compensate_runtime ? std::min(d + job.avg_task_runtime, horizon) : d;
    t.utility_level = level;
    t.layer = layer;
    t.impossible = job.utility->value(t.target_completion) <= 0.0;
    result.targets.push_back(t);
    result.hint.push_back({job.id, level, t.target_completion});
    timeline.peel(fixed_at[index], job.eta, d);
    erase_active(index);
  };

  const PeelHint* warm = config.warm_hint;
  std::size_t hint_cursor = 0;
  const auto find_active = [&](JobId id) -> const TasJob* {
    for (const TasJob* j : active) {
      if (j->id == id) return j;
    }
    return nullptr;
  };

  // Layer replay (DESIGN.md §5h): carry an unchanged prefix of the previous
  // pass's layers over verbatim, certify the whole prefix with one
  // feasibility probe, and re-peel only from the first layer whose
  // membership can change given which etas moved.  Replayed jobs erased
  // from `active` make the warm-hint cursor skip their hints automatically,
  // so hints and surviving layers stay aligned.
  const PeelReplay* replay = config.replay;
  if (replay != nullptr && replay->targets != nullptr &&
      !replay->targets->empty() && replay->tolerance > 0.0 && !active.empty()) {
    const auto moved = [&](JobId id) {
      return replay->moved != nullptr &&
             std::binary_search(replay->moved->begin(), replay->moved->end(), id);
    };
    // An arrival since the previous pass adds demand to every layer's
    // constraint set: replay only when each currently active job had a
    // layer last pass.  Departures are fine — demand leaving only loosens
    // the EDF constraints — so their layers are simply skipped below.
    std::vector<JobId> prev_ids;
    prev_ids.reserve(replay->targets->size());
    for (const TasTarget& t : *replay->targets) prev_ids.push_back(t.id);
    std::sort(prev_ids.begin(), prev_ids.end());
    bool known = true;
    for (const TasJob* j : active) {
      if (!std::binary_search(prev_ids.begin(), prev_ids.end(), j->id)) {
        known = false;
        break;
      }
    }
    if (known) {
      struct Tentative {
        std::size_t index;
        Utility level;
        Seconds deadline;
      };
      std::vector<Tentative> prefix;
      EdfTimeline tentative;  // the prefix's peeled entries only
      std::vector<unsigned char> used(active.size(), 0);
      Utility run_level = level_feasible;
      for (const TasTarget& prev : *replay->targets) {
        if (moved(prev.id)) break;  // membership can change from here on
        std::size_t index = active.size();
        for (std::size_t i = 0; i < active.size(); ++i) {
          if (used[i] == 0 && active[i]->id == prev.id) {
            index = i;
            break;
          }
        }
        if (index == active.size()) continue;  // departed or zero-demand now
        const TasJob& job = *active[index];
        // Re-price the layer's level through its absolute completion time
        // (the coordinate that stays put across passes — see PeelHintEntry)
        // and clamp the lexicographic climb monotone.
        Utility level = prev.utility_level;
        if (prev.target_completion >= 0.0) {
          const Utility repriced =
              job.utility->value(std::min(prev.target_completion, horizon));
          if (repriced > 0.0) level = repriced;
        }
        level = std::max(level, run_level);
        const Seconds d = deadline_for_level(job, level, ctx);
        if (d == kUnreachable) break;  // carried level no longer achievable
        prefix.push_back({index, level, d});
        tentative.peel(kUnreachable, job.eta, d);
        used[index] = 1;
        run_level = level;
      }
      if (!prefix.empty()) {
        // One certificate probe for the whole prefix: with the replayed
        // deadlines reserved, the prefix's final level must still be
        // feasible for the remaining jobs — the invariant every layer's
        // search establishes on the cold path, and what keeps audit_tas's
        // EDF condition intact on replayed results.  Infeasible => abandon
        // wholesale and peel everything.  The run level may exceed a
        // remaining job's cap, where its "fixed" deadline no longer holds,
        // so every remaining job probes as moving.  The lane's order and
        // deadlines are then over that other set, so the lane is
        // invalidated on both sides of the probe: neither the order repair
        // nor a same-level reuse may carry them across.
        std::vector<const TasJob*> remaining;
        for (std::size_t i = 0; i < active.size(); ++i) {
          if (used[i] == 0) remaining.push_back(active[i]);
        }
        ++result.probes;
        const auto invalidate = [](ProbeScratch& lane) {
          lane.order.clear();
          lane.complete = false;
        };
        invalidate(scratch[0]);
        const bool certified =
            probe_level(remaining, tentative, ctx, run_level, layer_epoch, scratch[0]);
        invalidate(scratch[0]);
        if (certified) {
          for (const Tentative& p : prefix) {
            const TasJob& job = *active[p.index];
            TasTarget t;
            t.id = job.id;
            t.mapping_deadline = p.deadline;
            t.target_completion =
                config.compensate_runtime
                    ? std::min(p.deadline + job.avg_task_runtime, horizon)
                    : p.deadline;
            t.utility_level = p.level;
            t.layer = layer;
            t.impossible = job.utility->value(t.target_completion) <= 0.0;
            result.targets.push_back(t);
            result.hint.push_back({job.id, p.level, t.target_completion});
            timeline.peel(fixed_at[p.index], job.eta, p.deadline);
            ++layer;
          }
          level_feasible = run_level;
          result.replayed_layers = static_cast<long>(prefix.size());
          std::vector<std::size_t> erase_order;
          erase_order.reserve(prefix.size());
          for (const Tentative& p : prefix) erase_order.push_back(p.index);
          std::sort(erase_order.begin(), erase_order.end());
          for (std::size_t i = erase_order.size(); i > 0; --i) {
            erase_active(erase_order[i - 1]);
          }
        }
      }
    }
  }

  while (!active.empty()) {
    ++layer_epoch;
    // Upper bound for this layer: no job can exceed the utility of
    // completing immediately, and the layer max-min cannot exceed the
    // smallest such maximum among remaining jobs.
    Utility level_cap = std::numeric_limits<Utility>::infinity();
    std::size_t cap_index = 0;
    for (std::size_t i = 0; i < active.size(); ++i) {
      if (cap_of[i] < level_cap) {
        level_cap = cap_of[i];
        cap_index = i;
      }
    }

    Utility lo = level_feasible;
    Utility hi = level_cap;
    const bool degenerate_cap =
        level_cap <= level_feasible + config.tolerance * std::max(level_cap, 1e-3);

    // Lowest level the cold path can ever probe in this layer: with no
    // feasible positive probe, its k-section divides the bracket width by
    // (k+1) from the cap until the width test passes, and stops there.  The
    // warm search must respect the same floor — a feasible probe *below* it
    // would raise `lo` where the cold path leaves it at the inherited
    // level, and near zero that tiny level difference maps to a hugely
    // different peeled deadline (a sigmoid's inverse of 1e-40 sits decades
    // past its inverse of 1e-6), deforming every later layer's constraint
    // set.  Replayed with cold's exact arithmetic so a floored probe reads
    // the EDF structure at bit-for-bit the cold terminal level.
    Utility level_floor = level_cap;
    if (warm != nullptr) {
      while (level_floor - 0.0 >
                 config.tolerance * std::max(level_floor, 1e-3) &&
             level_floor > 1e-12) {
        level_floor = 0.0 + level_floor * static_cast<double>(1) /
                                static_cast<double>(k + 1);
      }
    }

    // Warm start: pick this layer's hint.  The stored completion time is
    // re-priced through the peeled job's utility curve (absolute completion
    // times barely move between passes, so this tracks the level drift the
    // raw stored level cannot).  Hints of departed jobs are skipped so the
    // rest re-align with the surviving layers.
    Utility hint_level = -1.0;
    if (warm != nullptr) {
      const TasJob* hint_job = nullptr;
      while (hint_cursor < warm->size() &&
             (hint_job = find_active((*warm)[hint_cursor].id)) == nullptr) {
        ++hint_cursor;
      }
      if (hint_cursor < warm->size()) {
        const PeelHintEntry& entry = (*warm)[hint_cursor];
        Utility h = entry.level;
        if (entry.completion >= 0.0) {
          const Utility repriced =
              hint_job->utility->value(std::min(entry.completion, horizon));
          if (repriced > 0.0) h = repriced;
        }
        // A hint outside the bracket still carries information — the level
        // moved at least to the edge — so clamp it one tolerance step
        // inside instead of discarding it.  A clamped-high hint that probes
        // feasible resolves a near-cap layer in one probe where the cold
        // bracket pays full k-section rounds.
        h = std::max(h, level_floor);
        if (h >= hi) {
          h = hi * (1.0 - config.tolerance);
        } else if (h <= lo && lo > 0.0) {
          h = std::min(lo * (1.0 + config.tolerance), 0.5 * (lo + hi));
        }
        if (h > lo && h < hi) hint_level = h;
      }
    }

    bool cap_feasible = false;
    bool cap_decided = false;
    // Set when the warm path has already reproduced the cold k-section's
    // final bracket exactly (see the grid replay below), so the k-section
    // loop must not run again.
    bool bracket_exact = false;
    // The bracket is resolved once it satisfies the k-section's own
    // termination condition (relative width within tolerance, or collapsed
    // below any meaningful utility).
    const auto resolved = [&] {
      return hi - lo <= config.tolerance * std::max(hi, 1e-3) || hi <= 1e-12;
    };
    if (hint_level > 0.0 && !degenerate_cap) {
      // Root-find the level from the hint using slack-valued probes.  A
      // boolean probe only halves the bracket, so any search over it costs
      // log(drift / tolerance) probes — but the EDF walk already knows *how
      // far* the probed level is from binding.  The minimum slack is a
      // monotone decreasing, piecewise-smooth function of the level with
      // the layer's max-min level as its root, so a secant step through the
      // last two probes lands near the root in one shot regardless of how
      // far the level drifted since the previous pass.  Feasible probes
      // raise `lo`, infeasible ones lower `hi`, exactly like the boolean
      // search, so a bad step can only tighten the bracket; a midpoint
      // fallback guards secant stalls (equal or infinite slacks) and a
      // probe budget hands any pathological layer to the k-section below.
      // Once both endpoints carry slack values the step switches to false
      // position with the Illinois anti-stall rule (halve the retained
      // endpoint's slack when two probes land on the same side) — plain
      // secant converges to the root one-sided, pinning one endpoint and
      // leaving the bracket wider than tolerance indefinitely.
      // In the steady state this is two probes: the hint is feasible and
      // one tolerance step above it is not.  The cap probe is skipped:
      // extrapolation past the cap probes the cap itself, and a bracket
      // that never reaches it proves the cap infeasible by monotonicity.
      Seconds probe_binding = kNoViolation;
      const auto slack_probe = [&](Utility level) {
        ++result.probes;
        return probe_level_slack(moving, timeline, ctx, level, layer_epoch, scratch[0],
                                 probe_binding);
      };
      // Level at which job j's deadline crosses absolute time t: its
      // deadline is U^{-1}(L) - comp, so the crossing level is U(t + comp).
      const auto crossing_level = [&](const TasJob& j, Seconds t) {
        return j.utility->value(
            config.compensate_runtime ? t + j.avg_task_runtime : t);
      };
      const auto slack_feasible = [](double s) { return s >= -kEdfSlack; };
      bool hi_is_cap = true;  // `hi` not yet established by a probe
      double f_lo = std::numeric_limits<double>::quiet_NaN();  // slack at lo
      double f_hi = std::numeric_limits<double>::quiet_NaN();  // slack at hi
      int last_side = 0;  // +1 last probe feasible, -1 infeasible
      const auto note = [&](Utility level, double s) {
        if (slack_feasible(s)) {
          lo = level;
          f_lo = std::max(s, 0.0);  // keep the sign separation exact
          if (last_side > 0 && std::isfinite(f_hi)) f_hi *= 0.5;
          last_side = 1;
        } else {
          hi = level;
          f_hi = s;
          hi_is_cap = false;
          if (last_side < 0 && std::isfinite(f_lo)) f_lo *= 0.5;
          last_side = -1;
        }
      };
      // Index of the active job whose deadline is the current binding
      // constraint (kNoIndex when the binding deadline belongs to a peeled
      // job, whose deadline no probe can move).
      const auto binding_job = [&](Seconds binding) -> std::size_t {
        std::size_t found = kNoIndex;
        if (scratch[0].complete) {
          for_each_deadline(scratch[0], [&](std::size_t i, Seconds d) {
            if (d == binding) found = i;
            return found == kNoIndex;
          });
        }
        return found;
      };
      if (hint_level >= level_cap * (1.0 - 2.0 * config.tolerance)) {
        // A hint at or next to the cap: open with the cap probe, exactly as
        // the cold path does.  Probing the clamped hint first pays one
        // extra probe whenever the cap turns out feasible — the hint probe
        // resolves the bracket but leaves the cap undecided, and the settle
        // probe below re-asks what the cap probe answers directly.
        hint_level = level_cap;
      }
      double prev_level = hint_level;
      double prev_slack = slack_probe(hint_level);
      if (hint_level == level_cap) {
        cap_decided = true;
        cap_feasible = slack_feasible(prev_slack);
      }
      note(hint_level, prev_slack);
      double cur_level = prev_level;
      double cur_slack = prev_slack;
      Seconds cur_binding = probe_binding;
      std::size_t cur_unreachable = scratch[0].first_unreachable;
      std::size_t cur_bind_job = binding_job(cur_binding);
      int same_side = 0;  // consecutive probes on one side of the root
      for (int guard = 0; !resolved() && guard < 16; ++guard) {
        double next = std::numeric_limits<double>::quiet_NaN();
        const bool cur_feasible = slack_feasible(cur_slack);
        if (!std::isfinite(cur_slack)) {
          // Unreachable level: chase down to the blocking job's maximum
          // achievable level (the level whose deadline lands exactly at
          // `now`).
          if (cur_unreachable != kNoIndex && cur_unreachable < moving.size()) {
            next = crossing_level(*moving[cur_unreachable], now) *
                   (1.0 - 0.25 * config.tolerance);
          }
        } else if (cur_bind_job != kNoIndex) {
          // Newton step in DEADLINE space.  Between deadline reorderings the
          // binding constraint's slack is exactly linear in its own deadline
          // with slope = capacity, so the deadline that zeroes it is
          // d' = d_b - s/C; map it back to a level through the binding
          // job's utility curve.  (Level space is exponentially warped on
          // sigmoid tails — value-based interpolation crawls there, this
          // does not.)  The step is floored at one tolerance so near-root
          // steps double as the certification probes resolved() needs.
          const Seconds d_target =
              cur_binding - cur_slack / static_cast<double>(capacity);
          next = crossing_level(*active[cur_bind_job], d_target);
          if (cur_feasible) {
            next = std::max(next, cur_level * (1.0 + config.tolerance));
          } else {
            next = std::min(next, cur_level / (1.0 + config.tolerance));
          }
        } else {
          // Binding constraint sits at a peeled job's fixed deadline: the
          // slack is piecewise-FLAT in the level and value-based root
          // finding degenerates to bisection.  But the breakpoints are
          // known in closed form — the slack changes exactly when some
          // active job's deadline crosses the binding deadline, at level
          // U_j(d_b + comp_j) — so jump to the nearest breakpoint and
          // certify it with a probe half a tolerance step on each side.
          if (cur_feasible) {
            double c = std::numeric_limits<double>::infinity();
            for (const TasJob* j : active) {
              const double x = crossing_level(*j, cur_binding);
              if (x > cur_level && x < c) c = x;
            }
            if (std::isfinite(c)) {
              next = c * (1.0 + 0.5 * config.tolerance);
              // Breakpoint at/above a probed-infeasible hi: certify from
              // below instead.
              if (!hi_is_cap && !(next < hi)) next = c * (1.0 - 0.5 * config.tolerance);
            }
          } else {
            double c = -std::numeric_limits<double>::infinity();
            for (const TasJob* j : active) {
              const double x = crossing_level(*j, cur_binding);
              if (x < cur_level && x > c) c = x;
            }
            if (std::isfinite(c)) next = c * (1.0 - 0.5 * config.tolerance);
          }
        }
        // Three probes in a row on the same side means the model steps are
        // stalling against one endpoint — force a bisection to guarantee
        // geometric bracket progress.
        if (same_side >= 3 && !(hi_is_cap && !(next < hi))) {
          next = 0.5 * (lo + hi);
        }
        if (!(next > lo && next < hi)) {
          if (std::isfinite(f_lo) && std::isfinite(f_hi) && f_hi != f_lo) {
            // Both endpoints carry (Illinois-adjusted) slacks: false
            // position stays inside the bracket and cannot stall one-sided.
            next = (lo * f_hi - hi * f_lo) / (f_hi - f_lo);
          } else if (std::isfinite(cur_slack) && std::isfinite(prev_slack) &&
                     cur_slack != prev_slack) {
            next = cur_level - cur_slack * (cur_level - prev_level) /
                                   (cur_slack - prev_slack);
          } else {
            next = std::numeric_limits<double>::quiet_NaN();
          }
        }
        if (hi_is_cap && !(next < hi)) {
          // Extrapolated past the cap (or no step available with every
          // probe so far feasible): settle the cap with one probe, as the
          // cold path would have started with.
          const double s = slack_probe(hi);
          cap_decided = true;
          cap_feasible = slack_feasible(s);
          note(hi, s);
          if (cap_feasible) break;
          same_side = slack_feasible(s) == cur_feasible ? same_side + 1 : 0;
          prev_level = cur_level;
          prev_slack = cur_slack;
          cur_level = hi;
          cur_slack = s;
          cur_binding = probe_binding;
          cur_unreachable = scratch[0].first_unreachable;
          cur_bind_job = binding_job(cur_binding);
          continue;
        }
        if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);
        // Never probe below the cold path's terminal level (see
        // level_floor above); hi >= level_floor always, so the clamp
        // keeps the probe inside the bracket.
        next = std::max(next, level_floor);
        const double s = slack_probe(next);
        note(next, s);
        same_side = slack_feasible(s) == cur_feasible ? same_side + 1 : 0;
        prev_level = cur_level;
        prev_slack = cur_slack;
        cur_level = next;
        cur_slack = s;
        cur_binding = probe_binding;
        cur_unreachable = scratch[0].first_unreachable;
        cur_bind_job = binding_job(cur_binding);
      }
      if (hi_is_cap && !cap_decided) {
        // Every probe so far was feasible and below the cap (e.g. a clamped
        // near-cap hint that resolved the bracket in one probe).  The cold
        // path always decides the cap, and the distinction matters beyond
        // the level: a feasible cap peels the *capped* job, not whichever
        // job the bottleneck scan at an unprobed-but-feasible `hi` would
        // misattribute.  Settle it with the probe the cold path starts with.
        const double s = slack_probe(hi);
        cap_decided = true;
        cap_feasible = slack_feasible(s);
        note(hi, s);
      }
      if (resolved()) ++result.warm_layers;
      if (!(cap_decided && cap_feasible)) {
        // The search above certifies a bracket within tolerance of the
        // layer's max-min level, but "within tolerance" is not enough to
        // track the cold path: a tolerance-sized level difference on a flat
        // utility region moves the peeled *deadline* arbitrarily far, and
        // later layers amplify that shift through their EDF constraints
        // beyond any fixed envelope.  So the certified bracket is used only
        // as an oracle: replay the cold k-section's exact probe grid from
        // the original bracket, answering each grid level by monotonicity
        // when it falls outside the oracle (at or below a feasible level =>
        // feasible, at or above an infeasible one => infeasible) and paying
        // a real probe only for grid levels strictly inside it.  Grid
        // levels, round selection, and termination replicate the cold loop
        // bit-for-bit, so the replayed lo/hi — and with them the peeled
        // level, the peeled deadline, and the bottleneck probe — are
        // exactly the cold path's, at a fraction of the probes (the oracle
        // bracket is already tolerance-tight, so at most a couple of grid
        // levels per round land inside it).
        Utility rlo = level_feasible;
        Utility rhi = level_cap;
        while (rhi - rlo > config.tolerance * std::max(rhi, 1e-3) &&
               rhi > 1e-12) {
          const Utility width = rhi - rlo;
          for (int j = 0; j < k; ++j) {
            levels[static_cast<std::size_t>(j)] =
                rlo + width * static_cast<double>(j + 1) /
                          static_cast<double>(k + 1);
          }
          for (int j = 0; j < k; ++j) {
            const Utility g = levels[static_cast<std::size_t>(j)];
            unsigned char ok;
            if (g <= lo) {
              ok = 1;  // at or below a known-feasible level
            } else if (g >= hi) {
              ok = 0;  // at or above a known-infeasible level
            } else {
              const double s = slack_probe(g);
              note(g, s);  // tightens the oracle for the remaining grid
              ok = slack_feasible(s) ? 1 : 0;
            }
            level_ok[static_cast<std::size_t>(j)] = ok;
          }
          int best_ok = -1;
          for (int j = 0; j < k; ++j) {
            if (level_ok[static_cast<std::size_t>(j)] != 0) best_ok = j;
          }
          int first_bad = k;
          for (int j = k - 1; j > best_ok; --j) {
            if (level_ok[static_cast<std::size_t>(j)] == 0) first_bad = j;
          }
          const Utility prev_lo = rlo;
          const Utility prev_hi = rhi;
          if (best_ok >= 0) rlo = levels[static_cast<std::size_t>(best_ok)];
          if (first_bad < k) rhi = levels[static_cast<std::size_t>(first_bad)];
          if (rlo == prev_lo && rhi == prev_hi) break;
        }
        lo = rlo;
        hi = rhi;
        bracket_exact = true;
      }
    } else {
      cap_feasible = feasible(level_cap);
      cap_decided = true;
    }

    if ((cap_decided && cap_feasible) || degenerate_cap) {
      // The capped job already sits at its achievable maximum: peel it at
      // the best feasible level and continue the lexicographic climb with
      // the rest.
      const Utility level = cap_decided && cap_feasible ? level_cap : level_feasible;
      level_feasible = level;
      peel_job(cap_index, level);
      ++layer;
      if (warm != nullptr) ++hint_cursor;  // keep layers and hints aligned
      continue;
    }

    // k-section on [lo, hi] (Algorithm 3 inner loop; k = 1 is the printed
    // bisection).  Every round evaluates all k interior levels — no
    // short-circuit, so the serial and pooled paths perform identical probe
    // schedules — and keeps the bracket [largest feasible, smallest
    // infeasible]; feasibility is monotone non-increasing in the level, so
    // each round shrinks the bracket by (k+1)x.  The tolerance is relative
    // to the shrinking bracket: with an absolute Delta, a feasible region
    // near zero utility (steep sigmoids long past their budget) would be
    // skipped entirely and the job dumped at the horizon; the geometric
    // descent keeps resolving until the bracket is tight in *ratio* (or
    // collapses below any meaningful utility).
    while (!bracket_exact &&
           hi - lo > config.tolerance * std::max(hi, 1e-3) && hi > 1e-12) {
      const Utility width = hi - lo;
      for (int j = 0; j < k; ++j) {
        levels[static_cast<std::size_t>(j)] =
            lo + width * static_cast<double>(j + 1) / static_cast<double>(k + 1);
      }
      result.probes += k;
      const auto run_probe = [&](std::size_t j) {
        level_ok[j] =
            probe_level(moving, timeline, ctx, levels[j], layer_epoch, scratch[j]) ? 1 : 0;
      };
      if (config.pool != nullptr) {
        config.pool->parallel_for(static_cast<std::size_t>(k), run_probe);
      } else {
        for (std::size_t j = 0; j < static_cast<std::size_t>(k); ++j) run_probe(j);
      }
      int best_ok = -1;  // largest feasible probe index
      for (int j = 0; j < k; ++j) {
        if (level_ok[static_cast<std::size_t>(j)] != 0) best_ok = j;
      }
      int first_bad = k;  // smallest infeasible probe index above best_ok
      for (int j = k - 1; j > best_ok; --j) {
        if (level_ok[static_cast<std::size_t>(j)] == 0) first_bad = j;
      }
      const Utility prev_lo = lo;
      const Utility prev_hi = hi;
      if (best_ok >= 0) lo = levels[static_cast<std::size_t>(best_ok)];
      if (first_bad < k) hi = levels[static_cast<std::size_t>(first_bad)];
      if (lo == prev_lo && hi == prev_hi) break;  // bracket exhausted numerically
    }
    level_feasible = lo;

    // Bottleneck detection: probe just above the feasible level and find the
    // first violated EDF constraint; the active job with the latest deadline
    // inside that violating prefix is the one that cannot improve further.
    // The lane that established `hi` usually still holds that probe's
    // deadlines and sorted pairs — reuse them instead of recomputing every
    // inverse; a stale stash (hi set in an earlier round, or inherited from
    // the cap probe and overwritten since) falls back to one recomputation.
    std::size_t bottleneck = 0;
    {
      const Utility probe = hi;  // last infeasible level
      bool found = false;
      const ProbeScratch* stash = nullptr;
      for (const ProbeScratch& s : scratch) {
        if (s.layer_epoch == layer_epoch && s.level == probe) {
          stash = &s;
          break;
        }
      }
      if (stash == nullptr) {
        probe_level(moving, timeline, ctx, probe, layer_epoch, scratch[0]);
        stash = &scratch[0];
      }
      if (!stash->complete) {
        bottleneck = moving_at[stash->first_unreachable];
        found = true;
      } else {
        const Seconds violation = first_edf_violation(stash->pairs, timeline, ctx);
        const Seconds violated_at = violation == kNoViolation ? horizon : violation;
        Seconds best = -1.0;
        for_each_deadline(*stash, [&](std::size_t i, Seconds d) {
          if (d <= violated_at + 1e-12 && d > best) {
            best = d;
            bottleneck = i;
            found = true;
          }
          return true;
        });
      }
      if (!found) bottleneck = cap_index;  // numerical fallback
    }

    peel_job(bottleneck, level_feasible);
    ++layer;
    if (warm != nullptr) ++hint_cursor;
  }

  return result;
}

}  // namespace rush
