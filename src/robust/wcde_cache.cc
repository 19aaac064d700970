#include "src/robust/wcde_cache.h"

#include <algorithm>
#include <bit>

#include "src/common/error.h"

namespace rush {

namespace {

// Word-at-a-time FNV-1a: one xor-multiply per 64-bit value instead of the
// eight per-byte folds of classic FNV.  Whole-word mixing diffuses low bits
// into high bits only, so fingerprint() finishes with an avalanche step.
inline void fnv1a_mix(std::uint64_t& hash, std::uint64_t value) {
  constexpr std::uint64_t kPrime = 0x100000001B3ULL;
  hash ^= value;
  hash *= kPrime;
}

inline void fnv1a_mix(std::uint64_t& hash, double value) {
  fnv1a_mix(hash, std::bit_cast<std::uint64_t>(value));
}

// MurmurHash3 fmix64: spreads the mixed state across all 64 bits so shard
// selection (fp % kShards, a low-bits consumer) stays uniform.
inline std::uint64_t avalanche(std::uint64_t hash) {
  hash ^= hash >> 33;
  hash *= 0xFF51AFD7ED558CCDULL;
  hash ^= hash >> 33;
  hash *= 0xC4CEB9FE1A85EC53ULL;
  hash ^= hash >> 33;
  return hash;
}

}  // namespace

WcdeCache::WcdeCache(std::size_t capacity)
    : shard_capacity_(std::max<std::size_t>(1, (capacity + kShards - 1) / kShards)),
      fingerprint_fn_(&WcdeCache::fingerprint) {
  require(capacity >= 1, "WcdeCache: capacity must be at least 1");
}

WcdeCache::Fingerprint WcdeCache::fingerprint(const QuantizedPmf& phi, Probability theta,
                                              KlRadius delta) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;  // FNV offset basis
  fnv1a_mix(hash, static_cast<std::uint64_t>(phi.bins()));
  fnv1a_mix(hash, phi.bin_width());
  for (std::size_t l = 0; l < phi.bins(); ++l) fnv1a_mix(hash, phi.mass(l));
  // Serialization edge: the fingerprint hashes raw bit patterns.
  fnv1a_mix(hash, theta.value());
  fnv1a_mix(hash, delta.value());
  return avalanche(hash);
}

void WcdeCache::record_memo_hits(std::uint64_t n) {
  Shard& shard = shards_[0];
  MutexLock lock(shard.mutex);
  shard.stats.hits += n;
}

void WcdeCache::set_fingerprint_fn_for_test(FingerprintFn fn) {
  require(fn != nullptr, "WcdeCache: fingerprint function must not be null");
  fingerprint_fn_ = fn;
}

bool WcdeCache::try_get(const QuantizedPmf& phi, Probability theta, KlRadius delta,
                        WcdeResult* result, Fingerprint* fp_out) {
  require(result != nullptr, "WcdeCache::try_get: result must not be null");
  const Fingerprint fp = fingerprint_fn_(phi, theta, delta);
  if (fp_out != nullptr) *fp_out = fp;
  Shard& shard = shard_for(fp);
  bool fingerprint_matched = false;
  MutexLock lock(shard.mutex);
  // rushlint: order-insensitive(bucket scan selects by bit-exact equality; at most one entry matches)
  auto [it, end] = shard.entry_table.equal_range(fp);
  for (; it != end; ++it) {
    Entry& entry = it->second;
    fingerprint_matched = true;
    if (entry.theta == theta && entry.delta == delta && entry.phi == phi) {
      entry.last_used = ++shard.clock;
      ++shard.stats.hits;
      *result = entry.result;
      return true;
    }
  }
  if (fingerprint_matched) ++shard.stats.collisions;
  ++shard.stats.misses;
  return false;
}

void WcdeCache::insert(const QuantizedPmf& phi, Probability theta, KlRadius delta,
                       const WcdeResult& result, Fingerprint fp) {
  Shard& shard = shard_for(fp);
  MutexLock lock(shard.mutex);
  // Another thread may have missed on the same inputs concurrently and
  // inserted while the caller solved.  Re-scan before emplacing: a duplicate
  // entry would permanently eat shard capacity and slow every later lookup
  // on this fingerprint.  solve_wcde is deterministic, so refreshing the
  // existing entry is equivalent to replacing it.
  // rushlint: order-insensitive(bucket scan selects by bit-exact equality; at most one entry matches)
  auto [it, end] = shard.entry_table.equal_range(fp);
  for (; it != end; ++it) {
    Entry& entry = it->second;
    if (entry.theta == theta && entry.delta == delta && entry.phi == phi) {
      entry.last_used = ++shard.clock;
      return;
    }
  }
  if (shard.entry_table.size() >= shard_capacity_) {
    auto victim = shard.entry_table.begin();
    // rushlint: order-insensitive(min-scan over unique LRU clock values; the victim is the same in any visit order)
    for (auto it = shard.entry_table.begin(); it != shard.entry_table.end(); ++it) {
      if (it->second.last_used < victim->second.last_used) victim = it;
    }
    shard.entry_table.erase(victim);
    ++shard.stats.evictions;
  }
  shard.entry_table.emplace(fp, Entry{phi, theta, delta, result, ++shard.clock});
}

WcdeResult WcdeCache::solve(const QuantizedPmf& phi, Probability theta, KlRadius delta) {
  WcdeResult result;
  Fingerprint fp = 0;
  if (try_get(phi, theta, delta, &result, &fp)) return result;
  // Miss: solve outside any lock so concurrent misses do not serialize.
  result = solve_wcde(phi, theta, delta);
  insert(phi, theta, delta, result, fp);
  return result;
}

void WcdeCache::clear() {
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    shard.entry_table.clear();
    shard.clock = 0;
  }
}

std::size_t WcdeCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    total += shard.entry_table.size();
  }
  return total;
}

WcdeCacheStats WcdeCache::stats() const {
  WcdeCacheStats total;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    total.hits += shard.stats.hits;
    total.misses += shard.stats.misses;
    total.collisions += shard.stats.collisions;
    total.evictions += shard.stats.evictions;
  }
  return total;
}

}  // namespace rush
