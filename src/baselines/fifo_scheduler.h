// FIFO scheduler — Hadoop's default (paper §V-B comparison (i)).
//
// The paper's implementation serves one job at a time ("EDF and FIFO only
// execute one job at a time creates head-of-line blocking"), so by default
// containers go exclusively to the earliest-arrived incomplete job; when
// that job cannot use more containers (reduce barrier, task tail) the
// remaining containers idle.  Construct with exclusive = false for a
// work-conserving variant that hands leftovers to the next job in line
// (used by the scheduling-policy ablation).

#pragma once

#include "src/cluster/scheduler.h"

namespace rush {

class FifoScheduler final : public Scheduler {
 public:
  explicit FifoScheduler(bool exclusive = true) : exclusive_(exclusive) {}

  std::string name() const override { return exclusive_ ? "FIFO" : "FIFO-wc"; }
  /// Exclusive mode grants min(count, dispatchable) to the head-of-line
  /// job; work-conserving mode walks jobs in (arrival, id) order depleting
  /// each.
  std::vector<JobId> assign_containers(const ClusterView& view, int count) override;

 private:
  bool exclusive_;
};

}  // namespace rush
