#include "src/baselines/edf_scheduler.h"

#include <algorithm>

namespace rush {

std::vector<JobId> EdfScheduler::assign_containers(const ClusterView& view,
                                                   int count) {
  std::vector<JobId> grants;
  if (count <= 0) return grants;
  if (exclusive_) {
    // Handouts only deplete the head's dispatchable count and the head is
    // chosen over all incomplete jobs, so the wave is a closed form.
    const JobView* head = nullptr;
    for (const JobView& jv : view.jobs) {
      if (head == nullptr || jv.budget_deadline < head->budget_deadline ||
          (jv.budget_deadline == head->budget_deadline && jv.id < head->id)) {
        head = &jv;
      }
    }
    if (head == nullptr || head->dispatchable_tasks <= 0) return grants;
    grants.assign(static_cast<std::size_t>(std::min(count, head->dispatchable_tasks)),
                  head->id);
    return grants;
  }
  // Work-conserving: deplete jobs in (deadline, id) order.
  std::vector<const JobView*> order;
  for (const JobView& jv : view.jobs) {
    if (jv.dispatchable_tasks > 0) order.push_back(&jv);
  }
  std::sort(order.begin(), order.end(), [](const JobView* a, const JobView* b) {
    return a->budget_deadline < b->budget_deadline ||
           (a->budget_deadline == b->budget_deadline && a->id < b->id);
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
