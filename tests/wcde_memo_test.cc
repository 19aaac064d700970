// The planner's WCDE identity memo (DESIGN.md §5c).
//
// A job whose shared demand snapshot is the same object as in the previous
// pass, at the same KL radius, reuses that pass's WcdeResult without
// fingerprinting or comparing the PMF.  These tests pin the memo's key
// (snapshot identity + radius), its lifetime (one pass of jobs, never
// more), its gate (config.wcde_cache), its accounting (memo hits count as
// cache hits), and the audit build's re-verification of every hit.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/error.h"
#include "src/common/rng.h"
#include "src/core/rush_planner.h"
#include "src/utility/utility_function.h"

namespace rush {
namespace {

constexpr ContainerCount kCapacity = 8;
constexpr Seconds kNow = 10.0;

struct Session {
  std::vector<std::unique_ptr<UtilityFunction>> utilities;
  std::vector<PlannerJob> jobs;
};

QuantizedPmf demand_pmf(double mean) {
  return QuantizedPmf::gaussian(mean, 0.2 * mean, 128, mean * 3.5 / 128.0);
}

Session make_session(int count, std::uint64_t seed) {
  Session s;
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    s.utilities.push_back(std::make_unique<SigmoidUtility>(
        kNow + rng.uniform(50.0, 400.0), rng.uniform(1.0, 4.0), rng.uniform(0.01, 0.2)));
    PlannerJob job;
    job.id = 10 + 2 * i;
    job.set_demand(demand_pmf(rng.uniform(50.0, 900.0)));
    job.mean_runtime = rng.uniform(2.0, 20.0);
    job.samples = static_cast<std::size_t>(rng.uniform_int(1, 30));
    job.utility = s.utilities.back().get();
    s.jobs.push_back(std::move(job));
  }
  return s;
}

RushConfig memo_config(bool audit) {
  RushConfig config;
  config.audit_invariants = audit;
  return config;
}

void expect_same_plans(const Plan& a, const Plan& b) {
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].id, b.entries[i].id);
    EXPECT_EQ(a.entries[i].eta, b.entries[i].eta);
    EXPECT_EQ(a.entries[i].target_completion, b.entries[i].target_completion);
    EXPECT_EQ(a.entries[i].utility_level, b.entries[i].utility_level);
    EXPECT_EQ(a.entries[i].desired_containers, b.entries[i].desired_containers);
  }
}

TEST(WcdeMemo, PointerIdenticalSnapshotHitsAndCountsAsCacheHit) {
  Session s = make_session(12, 1);
  RushPlanner planner(memo_config(false));
  const Plan first = planner.plan(s.jobs, kCapacity, kNow);
  EXPECT_EQ(planner.plan_stats().wcde_memo_hits, 0);
  const WcdeCacheStats before = planner.wcde_cache_stats();
  EXPECT_EQ(before.hits, 0u);
  EXPECT_EQ(before.misses, s.jobs.size());

  const Plan second = planner.plan(s.jobs, kCapacity, kNow);
  const WcdeCacheStats after = planner.wcde_cache_stats();
  EXPECT_EQ(planner.plan_stats().wcde_memo_hits, static_cast<long>(s.jobs.size()));
  EXPECT_EQ(after.hits, before.hits + s.jobs.size());
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(planner.plan_stats().wcde_cache_hits, static_cast<long>(after.hits));
  expect_same_plans(first, second);
}

TEST(WcdeMemo, NewSnapshotAfterATaskFinishesMisses) {
  Session s = make_session(6, 2);
  RushPlanner planner(memo_config(false));
  planner.plan(s.jobs, kCapacity, kNow);
  const WcdeCacheStats before = planner.wcde_cache_stats();

  // A finished task makes the scheduler build a new snapshot object, here
  // with new content: a memo miss and a cache miss.
  s.jobs[2].set_demand(demand_pmf(123.0));
  s.jobs[2].samples += 1;
  // A rebuilt snapshot with unchanged content is a new object too: the
  // memo misses and the cache's exact-PMF lookup answers instead.
  s.jobs[4].set_demand(*s.jobs[4].demand);
  const Plan got = planner.plan(s.jobs, kCapacity, kNow);
  const WcdeCacheStats after = planner.wcde_cache_stats();
  EXPECT_EQ(planner.plan_stats().wcde_memo_hits, static_cast<long>(s.jobs.size() - 2));
  EXPECT_EQ(after.misses, before.misses + 1);
  EXPECT_EQ(after.hits, before.hits + s.jobs.size() - 1);

  RushPlanner fresh(memo_config(false));
  expect_same_plans(got, fresh.plan(s.jobs, kCapacity, kNow));
}

TEST(WcdeMemo, SamePmfPointerWithADifferentRadiusMisses) {
  Session s = make_session(5, 3);
  RushConfig config = memo_config(false);
  config.adaptive_delta = true;
  for (PlannerJob& job : s.jobs) job.samples = 40;
  RushPlanner planner(config);
  planner.plan(s.jobs, kCapacity, kNow);
  const WcdeCacheStats before = planner.wcde_cache_stats();

  // Same snapshot object, one more sample: adaptive delta shrinks the KL
  // radius, so the memoized result no longer applies.
  const KlRadius old_radius = config.delta_for(s.jobs[1].samples);
  s.jobs[1].samples += 25;
  ASSERT_NE(config.delta_for(s.jobs[1].samples), old_radius);
  const Plan got = planner.plan(s.jobs, kCapacity, kNow);
  const WcdeCacheStats after = planner.wcde_cache_stats();
  EXPECT_EQ(planner.plan_stats().wcde_memo_hits, static_cast<long>(s.jobs.size() - 1));
  EXPECT_EQ(after.misses, before.misses + 1);

  RushPlanner fresh(config);
  expect_same_plans(got, fresh.plan(s.jobs, kCapacity, kNow));
}

TEST(WcdeMemo, DepartedJobsLeaveTheMemo) {
  Session s = make_session(9, 4);
  RushPlanner planner(memo_config(false));
  planner.plan(s.jobs, kCapacity, kNow);
  EXPECT_EQ(planner.wcde_memo_size(), s.jobs.size());

  // Three jobs finish; the memo must not keep their snapshots alive.
  std::vector<std::weak_ptr<const QuantizedPmf>> departed;
  for (int k = 0; k < 3; ++k) {
    departed.push_back(s.jobs.back().demand);
    s.jobs.pop_back();
  }
  for (int pass = 0; pass < 3; ++pass) {
    planner.plan(s.jobs, kCapacity, kNow + pass);
    EXPECT_LE(planner.wcde_memo_size(), s.jobs.size());
  }
  EXPECT_EQ(planner.wcde_memo_size(), s.jobs.size());
  for (const auto& gone : departed) EXPECT_TRUE(gone.expired());

  // An arrival joins; jobs handed over out of id order still hit.
  Session extra = make_session(1, 5);
  extra.jobs[0].id = 1;
  s.jobs.insert(s.jobs.begin() + 2, extra.jobs[0]);
  planner.plan(s.jobs, kCapacity, kNow + 5);
  EXPECT_EQ(planner.wcde_memo_size(), s.jobs.size());
  const long hits_before = planner.plan_stats().wcde_memo_hits;
  planner.plan(s.jobs, kCapacity, kNow + 6);
  EXPECT_EQ(planner.plan_stats().wcde_memo_hits - hits_before,
            static_cast<long>(s.jobs.size()));
}

TEST(WcdeMemo, CacheOffNeverMemoizes) {
  Session s = make_session(7, 6);
  RushConfig config = memo_config(false);
  config.wcde_cache = false;
  RushPlanner planner(config);
  for (int pass = 0; pass < 3; ++pass) planner.plan(s.jobs, kCapacity, kNow);
  EXPECT_EQ(planner.wcde_memo_size(), 0u);
  EXPECT_EQ(planner.plan_stats().wcde_memo_hits, 0);
  const WcdeCacheStats stats = planner.wcde_cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
}

TEST(WcdeMemo, AuditReverifiesEveryHitAgainstTheCache) {
  Session s = make_session(10, 7);
  RushPlanner audited(memo_config(true));
  audited.plan(s.jobs, kCapacity, kNow);
  const WcdeCacheStats before = audited.wcde_cache_stats();
  audited.plan(s.jobs, kCapacity, kNow);
  EXPECT_EQ(audited.plan_stats().wcde_memo_hits, static_cast<long>(s.jobs.size()));
  // Each audited hit probed the cache, which found the entry and counted
  // the probe itself — the same hit count an unaudited memo hit records.
  const WcdeCacheStats after = audited.wcde_cache_stats();
  EXPECT_EQ(after.hits, before.hits + s.jobs.size());
  EXPECT_EQ(after.misses, before.misses);

  // With a cache too small to keep the entries, the audit falls back to a
  // fresh solve: the probes show up as misses, proving each hit was
  // re-checked rather than trusted.  An unaudited planner (only possible
  // outside RUSH_DCHECK builds, which always audit) trusts the memo and
  // probes nothing.
  RushConfig tiny = memo_config(true);
  tiny.wcde_cache_capacity = 1;
  RushPlanner evicting(tiny);
  evicting.plan(s.jobs, kCapacity, kNow);
  const WcdeCacheStats tiny_before = evicting.wcde_cache_stats();
  evicting.plan(s.jobs, kCapacity, kNow);
  EXPECT_EQ(evicting.plan_stats().wcde_memo_hits, static_cast<long>(s.jobs.size()));
  EXPECT_GT(evicting.wcde_cache_stats().misses, tiny_before.misses);

  if (!kDcheckEnabled) {
    tiny.audit_invariants = false;
    RushPlanner trusting(tiny);
    trusting.plan(s.jobs, kCapacity, kNow);
    const WcdeCacheStats trusting_before = trusting.wcde_cache_stats();
    trusting.plan(s.jobs, kCapacity, kNow);
    EXPECT_EQ(trusting.wcde_cache_stats().misses, trusting_before.misses);
    EXPECT_EQ(trusting.wcde_cache_stats().hits, trusting_before.hits + s.jobs.size());
  }
}

}  // namespace
}  // namespace rush
