// Memoization cache for WCDE solves (DESIGN.md §5c).
//
// The feedback cycle re-runs WCDE for *every* active job each time a
// container frees (§IV), but a container event changes at most one job's
// demand PMF — every other (phi, theta, delta) triple is identical to the
// previous pass.  The cache keys solves on a 64-bit fingerprint of the
// triple and returns the stored result on a hit, skipping the O(bins)
// normalisation + prefix pass and the bisection entirely.
//
// Exactness: a fingerprint match alone is NOT trusted.  Each entry keeps a
// copy of its PMF, and a hit requires bit-exact equality of (phi, theta,
// delta); colliding-but-different inputs fall through to a fresh solve (and
// are counted in stats().collisions).  Since solve_wcde is deterministic, a
// hit is therefore bit-for-bit identical to recomputing — the property the
// parallel planner's differential tests pin down.
//
// Thread safety: the planner fans per-job solves across a pool, so the
// table is sharded by fingerprint with one mutex per shard; fresh solves run
// outside any lock.  Eviction is least-recently-used per shard.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "src/common/thread_annotations.h"
#include "src/common/units.h"
#include "src/robust/wcde.h"
#include "src/stats/pmf.h"

namespace rush {

struct ThreadSafetyProbe;

struct WcdeCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Lookups whose fingerprint matched an entry that turned out to hold a
  /// different (phi, theta, delta) — resolved by recomputing, never by
  /// trusting the fingerprint.
  std::uint64_t collisions = 0;
  std::uint64_t evictions = 0;
};

class WcdeCache {
 public:
  using Fingerprint = std::uint64_t;
  using FingerprintFn = Fingerprint (*)(const QuantizedPmf&, Probability, KlRadius);

  /// @param capacity total entries kept across all shards before LRU
  ///        eviction kicks in; must be >= 1.
  explicit WcdeCache(std::size_t capacity = 4096);

  /// solve_wcde with memoization: returns the cached result when an entry
  /// with bit-exact equal inputs exists, otherwise computes, stores and
  /// returns a fresh solve.  Safe to call concurrently.  Equivalent to
  /// try_get() followed on a miss by solve_wcde() + insert().
  WcdeResult solve(const QuantizedPmf& phi, Probability theta, KlRadius delta);

  /// Probe half of solve(): returns true and fills *result on a bit-exact
  /// hit.  Counts the probe (hit, miss, collision) in stats() either way, so
  /// a try_get/insert pair accounts exactly like one solve() call.  When
  /// fp_out is non-null it receives the computed fingerprint so the caller
  /// can pass it back to insert() without rehashing — the planner's batch
  /// path probes every dirty job first, batch-solves the misses, then
  /// inserts.  Safe to call concurrently.
  bool try_get(const QuantizedPmf& phi, Probability theta, KlRadius delta,
               WcdeResult* result, Fingerprint* fp_out = nullptr);

  /// Store half of solve(): records a solved result under fp (which must be
  /// the fingerprint of (phi, theta, delta)).  Pure store — no hit/miss
  /// accounting, only evictions; the probe that discovered the miss already
  /// counted it.  Re-checks for a concurrently inserted equal entry before
  /// emplacing (solve_wcde is deterministic, so refreshing it is
  /// equivalent).  Safe to call concurrently.
  void insert(const QuantizedPmf& phi, Probability theta, KlRadius delta,
              const WcdeResult& result, Fingerprint fp);

  /// FNV-1a over the binning, masses, theta and delta bit patterns, mixed a
  /// word at a time and finished with an avalanche step (the per-byte folding
  /// this replaces was the hot loop of every cache probe).
  static Fingerprint fingerprint(const QuantizedPmf& phi, Probability theta, KlRadius delta);

  /// Counts `n` lookups answered by an identity memo in front of the cache
  /// (RushPlanner reuses a job's result while its demand snapshot object
  /// and KL radius are unchanged, without fingerprinting the PMF), so
  /// stats().hits counts every solve the memoization layers avoided.
  void record_memo_hits(std::uint64_t n);

  void clear();
  std::size_t size() const;
  WcdeCacheStats stats() const;

  /// Test seam: replaces the fingerprint function (e.g. with a constant) so
  /// tests can force distinct inputs onto one fingerprint and verify the
  /// collision path.  Not for production use.
  void set_fingerprint_fn_for_test(FingerprintFn fn);

 private:
  struct Entry {
    QuantizedPmf phi;
    Probability theta;
    KlRadius delta;
    WcdeResult result;
    /// Shard-local LRU clock value of the last touch.
    std::uint64_t last_used;
  };

  struct Shard {
    mutable AnnotatedMutex mutex;
    std::unordered_multimap<Fingerprint, Entry> entry_table RUSH_GUARDED_BY(mutex);
    std::uint64_t clock RUSH_GUARDED_BY(mutex) = 0;
    WcdeCacheStats stats RUSH_GUARDED_BY(mutex);
  };

  static constexpr std::size_t kShards = 16;

  /// Compile-time seam: the thread-safety negative fixtures poke guarded
  /// shard members without the shard mutex to prove -Wthread-safety rejects
  /// it (tests/thread_safety/, see DESIGN.md §5f).
  friend struct ThreadSafetyProbe;

  Shard& shard_for(Fingerprint fp) { return shards_[fp % kShards]; }

  std::array<Shard, kShards> shards_;
  std::size_t shard_capacity_;
  /// Not guarded: set once by set_fingerprint_fn_for_test before any
  /// concurrent use (a test-only seam), read-only afterwards.
  FingerprintFn fingerprint_fn_;
};

}  // namespace rush
