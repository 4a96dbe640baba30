#include "ref_sched.hpp"

#include <algorithm>

namespace eco::slurm::ref {

std::vector<JobId> PlanSchedule(SchedulerPolicy policy,
                                std::vector<PlanInput> pending,
                                const std::vector<RunningInput>& running,
                                int free_nodes, int total_nodes, SimTime now) {
  std::vector<JobId> to_start;
  if (pending.empty() || total_nodes <= 0) return to_start;

  std::sort(pending.begin(), pending.end(),
            [](const PlanInput& a, const PlanInput& b) {
              if (a.priority != b.priority) return a.priority > b.priority;
              return a.tiebreak < b.tiebreak;
            });

  std::size_t head = 0;
  // Start in priority order while jobs fit.
  while (head < pending.size() && pending[head].nodes_needed <= free_nodes) {
    to_start.push_back(pending[head].id);
    free_nodes -= pending[head].nodes_needed;
    ++head;
  }
  if (policy == SchedulerPolicy::kFifo || head >= pending.size()) {
    return to_start;
  }

  // EASY backfill. The blocked head job reserves the earliest instant enough
  // nodes will be free, assuming running jobs end at their time limits.
  const PlanInput& blocked = pending[head];
  struct Release {
    SimTime when;
    int nodes;
  };
  std::vector<Release> releases;
  for (const auto& r : running) releases.push_back({r.expected_end, r.nodes_held});
  // Stable: equal release times keep the caller's job-id order. The early
  // break below makes the spare count depend on that order.
  std::stable_sort(
      releases.begin(), releases.end(),
      [](const Release& a, const Release& b) { return a.when < b.when; });

  SimTime shadow_time = now;
  int avail = free_nodes;
  int spare_at_shadow = 0;
  bool reserved = false;
  for (const auto& release : releases) {
    if (avail >= blocked.nodes_needed) break;
    avail += release.nodes;
    shadow_time = release.when;
    if (avail >= blocked.nodes_needed) {
      spare_at_shadow = avail - blocked.nodes_needed;
      reserved = true;
      break;
    }
  }
  // No reservation: either only just-started jobs block the head (no
  // release horizon to compute a window from) or it can never run.
  if (!reserved) return to_start;

  // Backfill candidates: lower-priority pending jobs that fit in the current
  // free nodes AND either finish before the shadow time or fit inside the
  // nodes that remain spare once the head starts.
  for (std::size_t i = head + 1; i < pending.size(); ++i) {
    const PlanInput& candidate = pending[i];
    if (candidate.nodes_needed > free_nodes) continue;
    const bool ends_before_shadow =
        now + candidate.time_limit_s <= shadow_time + 1e-9;
    const bool fits_beside_head = candidate.nodes_needed <= spare_at_shadow;
    if (ends_before_shadow || fits_beside_head) {
      to_start.push_back(candidate.id);
      free_nodes -= candidate.nodes_needed;
      if (fits_beside_head && !ends_before_shadow) {
        spare_at_shadow -= candidate.nodes_needed;
      }
    }
  }
  return to_start;
}

}  // namespace eco::slurm::ref
