#include "src/cluster/scheduler.h"

namespace rush {

namespace {

// Bounds-checked lookup through the dense id -> index map; -2 means the map
// is absent and the caller should fall back to the linear scan.
std::int32_t slot_of(const std::vector<std::int32_t>& id_to_index, JobId id) {
  if (id_to_index.empty()) return -2;
  if (id < 0 || static_cast<std::size_t>(id) >= id_to_index.size()) return -1;
  return id_to_index[static_cast<std::size_t>(id)];
}

}  // namespace

const JobView* ClusterView::find(JobId id) const {
  const std::int32_t slot = slot_of(id_to_index, id);
  if (slot >= 0) return &jobs[static_cast<std::size_t>(slot)];
  if (slot == -1) return nullptr;
  for (const JobView& j : jobs) {
    if (j.id == id) return &j;
  }
  return nullptr;
}

JobView* ClusterView::find_mutable(JobId id) {
  const std::int32_t slot = slot_of(id_to_index, id);
  if (slot >= 0) return &jobs[static_cast<std::size_t>(slot)];
  if (slot == -1) return nullptr;
  for (JobView& j : jobs) {
    if (j.id == id) return &j;
  }
  return nullptr;
}

std::optional<JobId> Scheduler::assign_container(const ClusterView& view) {
  const std::vector<JobId> grants = assign_containers(view, 1);
  if (grants.empty()) return std::nullopt;
  return grants.front();
}

}  // namespace rush
