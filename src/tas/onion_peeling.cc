#include "src/tas/onion_peeling.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <tuple>
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
/// Owner of a peeled timeline entry (an active entry's owner is its job's
/// input position).
constexpr std::uint32_t kPeeledEntry = static_cast<std::uint32_t>(-1);

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
///
/// Each entry has an owner, kept in a parallel vector so the walk reads no
/// more than it did: an active entry's owner is its job's input position,
/// a peeled entry's is kPeeledEntry.  That makes the live fixed jobs
/// searchable by deadline (binding job, bottleneck).
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
  /// A fixed active job: its deadline, eta and input position.
  struct Fixed {
    Seconds deadline;
    ContainerSeconds eta;
    std::uint32_t job;
    bool operator<(const Fixed& o) const {
      return std::tie(deadline, eta, job) < std::tie(o.deadline, o.eta, o.job);
    }
  };

  /// Starts the timeline from the fixed-deadline active jobs; any order,
  /// sorted here unless already sorted.  Ties in (deadline, eta) carry
  /// identical values, so their order changes no sum.
  void assign_active(std::vector<Fixed>& fixed) {
    if (!std::is_sorted(fixed.begin(), fixed.end())) std::sort(fixed.begin(), fixed.end());
    entries_.clear();
    owners_.clear();
    for (const Fixed& f : fixed) {
      entries_.push_back({f.deadline, f.eta, f.eta, 0.0});
      owners_.push_back(f.job);
    }
  }

  /// Records a job peeled at `deadline`.  A fixed-deadline active job
  /// (`fixed_deadline` is its timeline deadline, `job` its input position;
  /// kUnreachable for a moving job) leaves its active entry first.  A fixed
  /// job peeled at its own deadline — the usual case — moves its entry to
  /// the end of its deadline's run in place: one shift of the run instead
  /// of an erase and an insert over the whole tail.
  void peel(std::uint32_t job, Seconds fixed_deadline, ContainerSeconds eta, Seconds deadline) {
    const Entry peeled{deadline, eta, 0.0, eta};
    if (fixed_deadline == kUnreachable) {
      const std::size_t to = upper_bound(deadline);
      entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(to), peeled);
      owners_.insert(owners_.begin() + static_cast<std::ptrdiff_t>(to), kPeeledEntry);
      return;
    }
    std::size_t at = lower_bound(fixed_deadline);
    while (at < entries_.size() && entries_[at].deadline == fixed_deadline &&
           owners_[at] != job) {
      ++at;
    }
    ensure(at < entries_.size() && owners_[at] == job,
           "EdfTimeline::peel: no active entry to peel");
    // upper_bound(deadline); at its own deadline, the end of the entry's run.
    std::size_t to = at + 1;
    if (deadline == fixed_deadline) {
      while (to < entries_.size() && entries_[to].deadline == deadline) ++to;
    } else {
      to = upper_bound(deadline);
    }
    // Erasing `at` then inserting at upper_bound(deadline) of the shorter
    // vector, done as one shift of the entries in between.
    const auto e = entries_.begin();
    const auto o = owners_.begin();
    const auto a = static_cast<std::ptrdiff_t>(at);
    const auto t = static_cast<std::ptrdiff_t>(to);
    if (to > at) {
      std::copy(e + a + 1, e + t, e + a);
      std::copy(o + a + 1, o + t, o + a);
      entries_[to - 1] = peeled;
      owners_[to - 1] = kPeeledEntry;
    } else {
      std::copy_backward(e + t, e + a, e + a + 1);
      std::copy_backward(o + t, o + a, o + a + 1);
      entries_[to] = peeled;
      owners_[to] = kPeeledEntry;
    }
  }

  /// First entry whose deadline is not below `d`.
  std::size_t lower_bound(Seconds d) const {
    return static_cast<std::size_t>(
        std::lower_bound(entries_.begin(), entries_.end(), d,
                         [](const Entry& e, Seconds x) { return e.deadline < x; }) -
        entries_.begin());
  }
  /// First entry whose deadline is above `d`.
  std::size_t upper_bound(Seconds d) const {
    return static_cast<std::size_t>(
        std::upper_bound(entries_.begin(), entries_.end(), d,
                         [](Seconds x, const Entry& e) { return x < e.deadline; }) -
        entries_.begin());
  }

  const std::vector<Entry>& entries() const { return entries_; }
  /// Owner of entry i: an input position, or kPeeledEntry.
  std::uint32_t owner(std::size_t i) const { return owners_[i]; }

 private:
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> owners_;
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

/// Lowest input position among the live jobs whose deadline at the level
/// `lane` (a complete lane) last probed is exactly `d`, or kNoIndex: the
/// moving ones are a run of the lane's sorted pairs, the fixed ones a run
/// of the timeline's active entries.
std::size_t first_job_at(Seconds d, const ProbeScratch& lane,
                         const std::vector<std::uint32_t>& moving_at,
                         const EdfTimeline& timeline) {
  std::size_t found = kNoIndex;
  const DeadlineDemand& pairs = lane.pairs;
  for (auto j = static_cast<std::size_t>(
           std::lower_bound(pairs.begin(), pairs.end(), d,
                            [](const auto& p, Seconds x) { return p.first < x; }) -
           pairs.begin());
       j < pairs.size() && pairs[j].first == d; ++j) {
    found = std::min<std::size_t>(found, moving_at[lane.order[j]]);
  }
  const std::vector<EdfTimeline::Entry>& entries = timeline.entries();
  for (std::size_t q = timeline.lower_bound(d); q < entries.size() && entries[q].deadline == d;
       ++q) {
    if (timeline.owner(q) != kPeeledEntry) found = std::min<std::size_t>(found, timeline.owner(q));
  }
  return found;
}

/// What one onion_peel call indexes, kept per thread across calls so that
/// its buffers grow once per thread instead of being allocated on every
/// call.  A call overwrites every field before it reads it.
struct PeelWorkspace {
  /// By input position among the jobs with positive demand (their order in
  /// `jobs`): the job, its level cap, its fixed deadline (kUnreachable for
  /// a moving job), and whether it is still unpeeled.
  std::vector<const TasJob*> job;
  std::vector<Utility> cap;
  std::vector<Seconds> fixed_at;
  std::vector<unsigned char> live;
  /// (cap, position) pairs, sorted: the first live one is the job a scan
  /// for the smallest cap finds first.
  std::vector<std::pair<Utility, std::uint32_t>> cap_order;
  /// (id, position) pairs, sorted: the first live pair of an id is the job
  /// a scan of the active jobs finds first.
  std::vector<std::pair<JobId, std::uint32_t>> by_id;
  /// The moving jobs in position order, and their positions.
  std::vector<const TasJob*> moving;
  std::vector<std::uint32_t> moving_at;
  std::vector<EdfTimeline::Fixed> fixed;
  EdfTimeline timeline;
  std::vector<ProbeScratch> lanes;
  std::vector<Utility> levels;
  std::vector<unsigned char> level_ok;
};

}  // namespace

TasResult onion_peel(const std::vector<TasJob>& jobs, ContainerCount capacity,
                     Seconds now, const OnionPeelingConfig& config) {
  require(capacity > 0, "onion_peel: capacity must be positive");
  require(config.tolerance > 0.0, "onion_peel: tolerance must be positive");
  require(config.section_probes >= 1, "onion_peel: section_probes must be >= 1");
  require(jobs.size() < kPeeledEntry, "onion_peel: job positions must fit 32 bits");

  thread_local PeelWorkspace ws;
  TasResult result;
  result.targets.reserve(jobs.size());
  // The jobs with positive demand by input position.  Peeling clears a
  // job's `live` flag; positions never shift, so every per-job index below
  // stays valid for the whole call.
  std::vector<const TasJob*>& active = ws.job;
  // Level cap of each job — the utility of completing immediately — by
  // position.  `now` is fixed for the call, so each curve is evaluated once
  // here instead of once per layer.
  std::vector<Utility>& cap_of = ws.cap;
  active.clear();
  cap_of.clear();
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
  const std::size_t n = active.size();
  result.hint.reserve(n);
  std::vector<Seconds>& fixed_at = ws.fixed_at;  // by position; kUnreachable = moving
  std::vector<const TasJob*>& moving = ws.moving;
  std::vector<std::uint32_t>& moving_at = ws.moving_at;  // position of each moving job
  EdfTimeline& timeline = ws.timeline;
  fixed_at.clear();
  moving.clear();
  moving_at.clear();
  ws.fixed.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const TasJob& j = *active[i];
    const Seconds d = deadline_for_level(j, 0.0, ctx);
    const bool fixed =
        d != kUnreachable &&
        d == deadline_for_level(j, cap_of[i], ctx);
    fixed_at.push_back(fixed ? d : kUnreachable);
    if (fixed) {
      ws.fixed.push_back({d, j.eta, static_cast<std::uint32_t>(i)});
    } else {
      moving.push_back(&j);
      moving_at.push_back(static_cast<std::uint32_t>(i));
    }
  }
  timeline.assign_active(ws.fixed);

  // Per-call indexes that answer the per-layer lookups without a scan of
  // every active job (DESIGN.md §5d).  Both are sorted once, and not at
  // all when the input already is in order.
  std::vector<unsigned char>& live = ws.live;
  live.assign(n, 1);
  std::size_t live_count = n;
  std::vector<std::pair<Utility, std::uint32_t>>& cap_order = ws.cap_order;
  cap_order.clear();
  for (std::size_t i = 0; i < n; ++i) cap_order.emplace_back(cap_of[i], static_cast<std::uint32_t>(i));
  if (!std::is_sorted(cap_order.begin(), cap_order.end())) {
    std::sort(cap_order.begin(), cap_order.end());
  }
  std::size_t cap_next = 0;  // cap_order before it holds only peeled jobs
  std::vector<std::pair<JobId, std::uint32_t>>& by_id = ws.by_id;
  by_id.clear();
  for (std::size_t i = 0; i < n; ++i) by_id.emplace_back(active[i]->id, static_cast<std::uint32_t>(i));
  if (!std::is_sorted(by_id.begin(), by_id.end())) std::sort(by_id.begin(), by_id.end());

  const int k = config.section_probes;
  // One scratch buffer per probe lane: lane j of a round touches only
  // scratch[j] and level_ok[j], so concurrent probes need no locking.
  std::vector<ProbeScratch>& scratch = ws.lanes;
  scratch.resize(static_cast<std::size_t>(k));
  for (ProbeScratch& lane : scratch) {
    lane.order.clear();
    lane.level = 0.0;
    lane.layer_epoch = static_cast<std::uint64_t>(-1);
    lane.first_unreachable = kNoIndex;
    lane.complete = false;
  }
  std::vector<Utility>& levels = ws.levels;
  std::vector<unsigned char>& level_ok = ws.level_ok;
  levels.resize(static_cast<std::size_t>(k));
  level_ok.resize(static_cast<std::size_t>(k));
  // Stamps each lane's stash with the layer that produced it, so the
  // bottleneck step never trusts a leftover from an earlier (larger)
  // active set.
  std::uint64_t layer_epoch = 0;

  // Peels position `index`: clears its live flag and drops a moving job
  // from the moving list and every lane's deadline order.
  const auto erase_active = [&](std::size_t index) {
    live[index] = 0;
    --live_count;
    if (fixed_at[index] != kUnreachable) return;
    const auto slot = std::lower_bound(moving_at.begin(), moving_at.end(), index);
    const auto m = static_cast<std::size_t>(slot - moving_at.begin());
    for (ProbeScratch& lane : scratch) erase_moving(lane, moving.size(), m);
    moving.erase(moving.begin() + static_cast<std::ptrdiff_t>(m));
    moving_at.erase(slot);
  };

  // The scan each index replaced, kept for the DCHECK oracles: calls
  // visit(i, d) for each live position i in order, d its deadline at the
  // level `lane` last probed (complete lanes only), until visit returns
  // false.
  const auto for_each_deadline = [&](const ProbeScratch& lane, auto&& visit) {
    std::size_t m = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (live[i] == 0) continue;
      const Seconds d = fixed_at[i] != kUnreachable ? fixed_at[i] : lane.deadlines[m++];
      if (!visit(i, d)) return;
    }
  };

  // First position holding `id` that `usable` accepts, in input order —
  // what a scan of the active jobs finds — or kNoIndex.
  const auto first_with_id = [&](JobId id, auto&& usable) -> std::size_t {
    std::size_t found = kNoIndex;
    for (auto it = std::lower_bound(by_id.begin(), by_id.end(),
                                    std::pair<JobId, std::uint32_t>(id, 0));
         it != by_id.end() && it->first == id; ++it) {
      if (usable(it->second)) {
        found = it->second;
        break;
      }
    }
    if constexpr (kDcheckEnabled) {
      std::size_t scanned = kNoIndex;
      for (std::size_t i = 0; i < n && scanned == kNoIndex; ++i) {
        if (usable(i) && active[i]->id == id) scanned = i;
      }
      ensure(found == scanned, "onion_peel: id index differs from the scan");
    }
    return found;
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
    timeline.peel(static_cast<std::uint32_t>(index), fixed_at[index], job.eta, d);
    erase_active(index);
  };

  const PeelHint* warm = config.warm_hint;
  std::size_t hint_cursor = 0;

  // Layer replay (DESIGN.md §5h): carry an unchanged prefix of the previous
  // pass's layers over verbatim, certify the whole prefix with one
  // feasibility probe, and re-peel only from the first layer whose
  // membership can change given which etas moved.  Replayed jobs are no
  // longer live, which makes the warm-hint cursor skip their hints
  // automatically, so hints and surviving layers stay aligned.
  const PeelReplay* replay = config.replay;
  if (replay != nullptr && replay->targets != nullptr &&
      !replay->targets->empty() && replay->tolerance > 0.0 && n > 0) {
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
      std::vector<unsigned char> used(n, 0);
      Utility run_level = level_feasible;
      // Builds the prefix.  Each layer's level is re-priced through its
      // absolute completion time (the coordinate that stays put across
      // passes — see PeelHintEntry) and the lexicographic climb is clamped
      // monotone.  A re-priced level more than one search tolerance above
      // the stored one read a flat stretch of the curve, not drift: a
      // zero-level layer's completion at the horizon, where a sigmoid's tail
      // is still positive, or a step job's at its budget, its full weight.
      // With `keep_flat` such a layer keeps its stored level.  Returns
      // whether some layer took a level from a flat stretch.
      const auto build_prefix = [&](bool keep_flat) {
        prefix.clear();
        tentative = EdfTimeline();
        std::fill(used.begin(), used.end(), 0);
        run_level = level_feasible;
        bool lifted = false;
        for (const TasTarget& prev : *replay->targets) {
          if (moved(prev.id)) break;  // membership can change from here on
          const std::size_t index =
              first_with_id(prev.id, [&](std::size_t i) { return used[i] == 0; });
          if (index == kNoIndex) continue;  // departed or zero-demand now
          const TasJob& job = *active[index];
          Utility level = prev.utility_level;
          if (prev.target_completion >= 0.0) {
            const Utility repriced =
                job.utility->value(std::min(prev.target_completion, horizon));
            const bool flat = repriced > prev.utility_level * (1.0 + config.tolerance);
            if (repriced > 0.0 && !(keep_flat && flat)) level = repriced;
            lifted = lifted || flat;
          }
          level = std::max(level, run_level);
          const Seconds d = deadline_for_level(job, level, ctx);
          if (d == kUnreachable) break;  // carried level no longer achievable
          prefix.push_back({index, level, d});
          tentative.peel(kPeeledEntry, kUnreachable, job.eta, d);
          used[index] = 1;
          run_level = level;
        }
        return lifted;
      };
      const auto invalidate = [](ProbeScratch& lane) {
        lane.order.clear();
        lane.complete = false;
      };
      // One certificate probe for the whole prefix: with the replayed
      // deadlines reserved, the prefix's final level must still be feasible
      // for the remaining jobs — the invariant every layer's search
      // establishes on the cold path, and what keeps audit_tas's EDF
      // condition intact on replayed results.  The run level may exceed a
      // remaining job's cap, where its "fixed" deadline no longer holds, so
      // every remaining job probes as moving.  The lane's order and
      // deadlines are then over that other set, so the lane is invalidated
      // on both sides of the probe: neither the order repair nor a
      // same-level reuse may carry them across.
      const auto certify = [&] {
        if (prefix.empty()) return false;
        std::vector<const TasJob*> remaining;
        for (std::size_t i = 0; i < n; ++i) {
          if (used[i] == 0) remaining.push_back(active[i]);
        }
        ++result.probes;
        invalidate(scratch[0]);
        const bool ok =
            probe_level(remaining, tentative, ctx, run_level, layer_epoch, scratch[0]);
        invalidate(scratch[0]);
        return ok;
      };
      // A prefix lifted off a flat stretch that fails its certificate is
      // retried once at the stored levels; a failed certificate otherwise
      // abandons the replay wholesale and the pass peels everything.
      const bool lifted = build_prefix(false);
      bool certified = certify();
      if (!certified && lifted) {
        build_prefix(true);
        certified = certify();
      }
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
          timeline.peel(static_cast<std::uint32_t>(p.index), fixed_at[p.index], job.eta,
                        p.deadline);
          live[p.index] = 0;
          ++layer;
        }
        level_feasible = run_level;
        result.replayed_layers = static_cast<long>(prefix.size());
        live_count -= prefix.size();
        // Drop the replayed moving jobs in one pass.  Every lane is over
        // another set now (lane 0 was invalidated, the others are unused),
        // so each is cleared, as a peel would have cleared it.
        std::size_t w = 0;
        for (std::size_t m = 0; m < moving.size(); ++m) {
          if (live[moving_at[m]] == 0) continue;
          moving[w] = moving[m];
          moving_at[w++] = moving_at[m];
        }
        moving.resize(w);
        moving_at.resize(w);
        for (ProbeScratch& lane : scratch) invalidate(lane);
      }
    }
  }

  while (live_count > 0) {
    ++layer_epoch;
    // Upper bound for this layer: no job can exceed the utility of
    // completing immediately, and the layer max-min cannot exceed the
    // smallest such maximum among remaining jobs — the first live job in
    // cap order, which is the first in input order among equal caps.
    while (live[cap_order[cap_next].second] == 0) ++cap_next;
    const std::size_t cap_index = cap_order[cap_next].second;
    const Utility level_cap = cap_of[cap_index];
    if constexpr (kDcheckEnabled) {
      Utility scanned = std::numeric_limits<Utility>::infinity();
      std::size_t scanned_index = kNoIndex;
      for (std::size_t i = 0; i < n; ++i) {
        if (live[i] == 0) continue;
        if (scanned_index == kNoIndex) scanned_index = i;
        if (cap_of[i] < scanned) {
          scanned = cap_of[i];
          scanned_index = i;
        }
      }
      ensure(std::bit_cast<std::uint64_t>(scanned) == std::bit_cast<std::uint64_t>(level_cap) &&
                 scanned_index == cap_index,
             "onion_peel: cap order differs from the scan");
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
    // Only a non-degenerate layer with a hint searches, so only that layer
    // needs the floor.
    Utility level_floor = level_cap;

    // Warm start: pick this layer's hint.  The stored completion time is
    // re-priced through the peeled job's utility curve (absolute completion
    // times barely move between passes, so this tracks the level drift the
    // raw stored level cannot).  Hints of departed jobs are skipped so the
    // rest re-align with the surviving layers; a degenerate layer only
    // keeps that alignment.
    Utility hint_level = -1.0;
    if (warm != nullptr) {
      std::size_t hint_job = kNoIndex;
      while (hint_cursor < warm->size() &&
             (hint_job = first_with_id((*warm)[hint_cursor].id,
                                       [&](std::size_t i) { return live[i] != 0; })) ==
                 kNoIndex) {
        ++hint_cursor;
      }
      if (hint_cursor < warm->size() && !degenerate_cap) {
        while (level_floor - 0.0 >
                   config.tolerance * std::max(level_floor, 1e-3) &&
               level_floor > 1e-12) {
          level_floor = 0.0 + level_floor * static_cast<double>(1) /
                                  static_cast<double>(k + 1);
        }
        const PeelHintEntry& entry = (*warm)[hint_cursor];
        Utility h = entry.level;
        if (entry.completion >= 0.0) {
          const Utility repriced =
              active[hint_job]->utility->value(std::min(entry.completion, horizon));
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
      // Position of the first live job whose deadline is the current
      // binding constraint (kNoIndex when the binding deadline belongs to a
      // peeled job, whose deadline no probe can move).
      const auto binding_job = [&](Seconds binding) -> std::size_t {
        if (!scratch[0].complete) return kNoIndex;
        const std::size_t found = first_job_at(binding, scratch[0], moving_at, timeline);
        if constexpr (kDcheckEnabled) {
          std::size_t scanned = kNoIndex;
          for_each_deadline(scratch[0], [&](std::size_t i, Seconds d) {
            if (d == binding) scanned = i;
            return scanned == kNoIndex;
          });
          ensure(found == scanned, "onion_peel: binding job differs from the scan");
        }
        return found;
      };
      // Calls visit(job) for every live job: the moving ones, then the
      // fixed ones in timeline order.
      const auto for_each_live_job = [&](auto&& visit) {
        for (const TasJob* j : moving) visit(*j);
        for (std::size_t q = 0; q < timeline.entries().size(); ++q) {
          if (timeline.owner(q) != kPeeledEntry) visit(*active[timeline.owner(q)]);
        }
      };
      // Nearest breakpoint above (up) or below the current level: a level
      // at which some live job's deadline crosses `t`.  The minimum or
      // maximum of one candidate set does not depend on the visiting order.
      const auto nearest_crossing = [&](Seconds t, Utility level, bool up) {
        double c = up ? std::numeric_limits<double>::infinity()
                      : -std::numeric_limits<double>::infinity();
        const auto consider = [&](const TasJob& j) {
          const double x = crossing_level(j, t);
          if (up ? (x > level && x < c) : (x < level && x > c)) c = x;
        };
        for_each_live_job(consider);
        if constexpr (kDcheckEnabled) {
          const double indexed = c;
          c = up ? std::numeric_limits<double>::infinity()
                 : -std::numeric_limits<double>::infinity();
          for (std::size_t i = 0; i < n; ++i) {
            if (live[i] != 0) consider(*active[i]);
          }
          ensure(std::bit_cast<std::uint64_t>(indexed) == std::bit_cast<std::uint64_t>(c),
                 "onion_peel: breakpoint differs from the scan");
        }
        return c;
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
            const double c = nearest_crossing(cur_binding, cur_level, true);
            if (std::isfinite(c)) {
              next = c * (1.0 + 0.5 * config.tolerance);
              // Breakpoint at/above a probed-infeasible hi: certify from
              // below instead.
              if (!hi_is_cap && !(next < hi)) next = c * (1.0 - 0.5 * config.tolerance);
            }
          } else {
            const double c = nearest_crossing(cur_binding, cur_level, false);
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
        const Seconds limit = violated_at + 1e-12;
        // The latest live deadline within the limit (above -1): the last
        // moving pair within it, and the last active timeline entry within
        // it unless the moving one is already later.
        Seconds best = -1.0;
        const DeadlineDemand& pairs = stash->pairs;
        const auto last = std::upper_bound(pairs.begin(), pairs.end(), limit,
                                           [](Seconds x, const auto& p) { return x < p.first; });
        if (last != pairs.begin() && std::prev(last)->first > best) best = std::prev(last)->first;
        for (std::size_t q = timeline.upper_bound(limit);
             q > 0 && timeline.entries()[q - 1].deadline > best; --q) {
          if (timeline.owner(q - 1) != kPeeledEntry) {
            best = timeline.entries()[q - 1].deadline;
            break;
          }
        }
        if (best > -1.0) {
          bottleneck = first_job_at(best, *stash, moving_at, timeline);
          found = true;
        }
        if constexpr (kDcheckEnabled) {
          std::size_t scanned = kNoIndex;
          Seconds scanned_best = -1.0;
          for_each_deadline(*stash, [&](std::size_t i, Seconds d) {
            if (d <= limit && d > scanned_best) {
              scanned_best = d;
              scanned = i;
            }
            return true;
          });
          ensure(scanned == (found ? bottleneck : kNoIndex),
                 "onion_peel: bottleneck differs from the scan");
        }
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
