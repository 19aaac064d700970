#include "src/baselines/fifo_scheduler.h"

#include <algorithm>

namespace rush {

std::vector<JobId> FifoScheduler::assign_containers(const ClusterView& view,
                                                    int count) {
  std::vector<JobId> grants;
  if (count <= 0) return grants;
  if (exclusive_) {
    // The head job is picked over ALL incomplete jobs, so handouts (which
    // only deplete its dispatchable count) never change the choice: a wave
    // is min(count, dispatchable) grants to the head, then idle containers.
    const JobView* head = nullptr;
    for (const JobView& jv : view.jobs) {
      if (head == nullptr || jv.arrival < head->arrival ||
          (jv.arrival == head->arrival && jv.id < head->id)) {
        head = &jv;
      }
    }
    if (head == nullptr || head->dispatchable_tasks <= 0) return grants;
    grants.assign(static_cast<std::size_t>(std::min(count, head->dispatchable_tasks)),
                  head->id);
    return grants;
  }
  // Work-conserving: deplete jobs in (arrival, id) order — each handout
  // goes to the earliest job still dispatchable.
  std::vector<const JobView*> order;
  for (const JobView& jv : view.jobs) {
    if (jv.dispatchable_tasks > 0) order.push_back(&jv);
  }
  std::sort(order.begin(), order.end(), [](const JobView* a, const JobView* b) {
    return a->arrival < b->arrival || (a->arrival == b->arrival && a->id < b->id);
  });
  grants.reserve(static_cast<std::size_t>(count));
  for (const JobView* jv : order) {
    for (int t = 0; t < jv->dispatchable_tasks; ++t) {
      if (static_cast<int>(grants.size()) == count) return grants;
      grants.push_back(jv->id);
    }
  }
  return grants;
}

}  // namespace rush
