#include "slurm/sched_index.hpp"

#include <algorithm>
#include <cmath>

namespace eco::slurm {

// ---------------------------------------------------------------------------
// PendingIndex
// ---------------------------------------------------------------------------

double PendingIndex::GrowingRank(const IndexedJob& job) const {
  if (!multifactor_) return 0.0;
  const MultifactorWeights& w = priority_->weights();
  // Within one user, priority(t) = slope·t + (W_size·size − slope·eligible)
  // + per-user terms, with slope = W_age/max_age shared by every unsaturated
  // job. The parenthesised form is the time-invariant rank.
  const double slope =
      w.max_age_seconds > 0.0 ? w.age / w.max_age_seconds : 0.0;
  return w.size * job.size_factor - slope * job.eligible_time;
}

double PendingIndex::SaturatedRank(const IndexedJob& job) const {
  if (!multifactor_) return 0.0;
  // Age factor pinned at 1: only the size term still separates jobs.
  return priority_->weights().size * job.size_factor;
}

void PendingIndex::Insert(const IndexedJob& job) {
  Bucket& bucket = buckets_[job.user];
  const MultifactorWeights& w = priority_->weights();
  const bool starts_saturated = !multifactor_ || w.max_age_seconds <= 0.0;
  Location loc;
  loc.user = job.user;
  loc.saturated = starts_saturated;
  if (starts_saturated) {
    loc.key = Key{SaturatedRank(job), job.tiebreak};
    bucket.saturated.emplace(loc.key, job);
  } else {
    loc.key = Key{GrowingRank(job), job.tiebreak};
    bucket.growing.emplace(loc.key, job);
    saturation_queue_.push({job.eligible_time + w.max_age_seconds, job.id});
  }
  locations_[job.id] = loc;
}

bool PendingIndex::Erase(JobId id) {
  const auto it = locations_.find(id);
  if (it == locations_.end()) return false;
  const Location& loc = it->second;
  const auto bucket_it = buckets_.find(loc.user);
  Bucket& bucket = bucket_it->second;
  (loc.saturated ? bucket.saturated : bucket.growing).erase(loc.key);
  if (bucket.growing.empty() && bucket.saturated.empty()) {
    buckets_.erase(bucket_it);  // keep Scan() proportional to active users
  }
  locations_.erase(it);
  return true;
}

void PendingIndex::MigrateSaturated(SimTime now) {
  while (!saturation_queue_.empty() && saturation_queue_.top().first <= now) {
    const JobId id = saturation_queue_.top().second;
    saturation_queue_.pop();
    const auto it = locations_.find(id);
    if (it == locations_.end() || it->second.saturated) continue;  // stale
    Location& loc = it->second;
    Bucket& bucket = buckets_.at(loc.user);
    auto node = bucket.growing.extract(loc.key);
    loc.key = Key{SaturatedRank(node.mapped()), node.mapped().tiebreak};
    loc.saturated = true;
    node.key() = loc.key;
    bucket.saturated.insert(std::move(node));
  }
}

PendingIndex::Cursor PendingIndex::Scan(SimTime now) {
  MigrateSaturated(now);
  return Cursor(this, now);
}

// ---------------------------------------------------------------------------
// PendingIndex::Cursor — k-way merge over user bucket heads
// ---------------------------------------------------------------------------

double PendingIndex::Cursor::PriorityOf(const IndexedJob& job,
                                        double fs_factor) const {
  if (!index_->multifactor_) return 0.0;
  // Same expression, same operand order, same cached-factor inputs as
  // MultifactorPriority::Compute — bitwise identical results.
  return index_->priority_->ComputeFromFactors(
      std::max(0.0, now_ - job.eligible_time), job.size_factor, fs_factor);
}

PendingIndex::Cursor::Cursor(const PendingIndex* index, SimTime now)
    : index_(index), now_(now) {
  users_.reserve(index_->buckets_.size());
  heap_.reserve(index_->buckets_.size());
  for (const auto& [user, bucket] : index_->buckets_) {
    UserState state;
    state.bucket = &bucket;
    state.growing = bucket.growing.begin();
    state.saturated = bucket.saturated.begin();
    // One fair-share evaluation per user per pass instead of per job:
    // Factor() is pure in (user, now, tracker state), so the cached value is
    // bitwise the same.
    state.fs_factor = index_->multifactor_
                          ? index_->fairshare_->Factor(user, now)
                          : 1.0;
    users_.push_back(state);
    PushUserHead(users_.size() - 1);
  }
}

namespace {
// Max-heap on (priority, then earlier submission): `a` sorts below `b` when
// it has lower priority, or equal priority and a later tiebreak.
struct HeadLess {
  template <typename Entry>
  bool operator()(const Entry& a, const Entry& b) const {
    if (a.priority != b.priority) return a.priority < b.priority;
    return a.tiebreak > b.tiebreak;
  }
};
}  // namespace

void PendingIndex::Cursor::PushUserHead(std::size_t slot) {
  UserState& user = users_[slot];
  const bool has_growing = user.growing != user.bucket->growing.end();
  const bool has_saturated = user.saturated != user.bucket->saturated.end();
  if (!has_growing && !has_saturated) return;

  HeapEntry entry;
  entry.user_slot = slot;
  if (has_growing && has_saturated) {
    const double pg = PriorityOf(user.growing->second, user.fs_factor);
    const double ps = PriorityOf(user.saturated->second, user.fs_factor);
    const bool pick_saturated =
        ps > pg || (ps == pg && user.saturated->second.tiebreak <
                                    user.growing->second.tiebreak);
    entry.from_saturated = pick_saturated;
    entry.priority = pick_saturated ? ps : pg;
    entry.tiebreak = (pick_saturated ? user.saturated : user.growing)
                         ->second.tiebreak;
  } else {
    entry.from_saturated = has_saturated;
    const auto& it = has_saturated ? user.saturated : user.growing;
    entry.priority = PriorityOf(it->second, user.fs_factor);
    entry.tiebreak = it->second.tiebreak;
  }
  heap_.push_back(entry);
  std::push_heap(heap_.begin(), heap_.end(), HeadLess{});
}

std::optional<PendingIndex::Candidate> PendingIndex::Cursor::Next() {
  if (heap_.empty()) return std::nullopt;
  std::pop_heap(heap_.begin(), heap_.end(), HeadLess{});
  const HeapEntry top = heap_.back();
  heap_.pop_back();

  UserState& user = users_[top.user_slot];
  auto& it = top.from_saturated ? user.saturated : user.growing;
  Candidate out{&it->second, top.priority};
  ++it;
  PushUserHead(top.user_slot);
  return out;
}

// ---------------------------------------------------------------------------
// NodeTimeline
// ---------------------------------------------------------------------------

void NodeTimeline::Add(JobId id, SimTime release_at, int nodes) {
  releases_[{release_at, id}] = nodes;
  release_of_[id] = release_at;
}

void NodeTimeline::Remove(JobId id) {
  const auto it = release_of_.find(id);
  if (it == release_of_.end()) return;
  releases_.erase({it->second, id});
  release_of_.erase(it);
}

NodeTimeline::Shadow NodeTimeline::ComputeShadow(int free_now, int needed,
                                                 SimTime now) const {
  Shadow shadow;
  shadow.time = now;
  int avail = free_now;
  for (const auto& [key, nodes] : releases_) {
    if (avail >= needed) break;
    avail += nodes;
    shadow.time = key.first;
    if (avail >= needed) {
      shadow.spare_nodes = avail - needed;
      shadow.reserved = true;
      break;
    }
  }
  return shadow;
}

// ---------------------------------------------------------------------------
// Indexed EASY planner
// ---------------------------------------------------------------------------

IndexedPlan PlanScheduleIndexed(SchedulerPolicy policy, PendingIndex& pending,
                                const NodeTimeline& timeline, int free_nodes,
                                SimTime now, int backfill_max_job_test) {
  IndexedPlan plan;
  if (pending.empty()) return plan;

  auto cursor = pending.Scan(now);
  auto candidate = cursor.Next();

  // Start in priority order while jobs fit.
  while (candidate && candidate->job->nodes_needed <= free_nodes) {
    ++plan.candidates;
    plan.starts.push_back({candidate->job->id, candidate->priority});
    free_nodes -= candidate->job->nodes_needed;
    candidate = cursor.Next();
  }
  if (!candidate || policy == SchedulerPolicy::kFifo) return plan;

  // EASY backfill: reserve the shadow for the blocked head, then admit
  // lower-priority jobs that finish before it or fit beside it.
  ++plan.candidates;
  const int head_nodes = candidate->job->nodes_needed;
  const auto shadow = timeline.ComputeShadow(free_nodes, head_nodes, now);
  if (!shadow.reserved) return plan;

  int spare = shadow.spare_nodes;
  std::uint64_t tested = 0;
  while ((candidate = cursor.Next())) {
    if (free_nodes <= 0) break;  // nothing further can fit
    if (backfill_max_job_test > 0 &&
        ++tested > static_cast<std::uint64_t>(backfill_max_job_test)) {
      break;
    }
    ++plan.candidates;
    const IndexedJob& job = *candidate->job;
    if (job.nodes_needed > free_nodes) continue;
    const bool ends_before_shadow =
        now + job.time_limit_s <= shadow.time + 1e-9;
    const bool fits_beside_head = job.nodes_needed <= spare;
    if (ends_before_shadow || fits_beside_head) {
      plan.starts.push_back({job.id, candidate->priority});
      ++plan.backfilled;
      free_nodes -= job.nodes_needed;
      if (fits_beside_head && !ends_before_shadow) {
        spare -= job.nodes_needed;
      }
    }
  }
  return plan;
}

}  // namespace eco::slurm
