#include "common/sim_clock.hpp"

#include <algorithm>

namespace eco {

std::uint64_t EventQueue::ScheduleAt(SimTime when, Callback cb) {
  return ScheduleEvery(when, 0.0, std::move(cb));
}

std::uint64_t EventQueue::ScheduleAfter(SimTime delay, Callback cb) {
  return ScheduleAt(now_ + std::max(0.0, delay), std::move(cb));
}

std::uint64_t EventQueue::ScheduleEvery(SimTime first_at, SimTime period,
                                        Callback cb, TaskKind kind) {
  const bool observer = kind == TaskKind::kObserver;
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    slots_.back().generation = 1;
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.cb = std::move(cb);
  s.period = period;
  s.lane = period > 0.0 ? LaneFor(period) : kHeap;
  s.live = true;
  const std::uint64_t id = (static_cast<std::uint64_t>(s.generation) << 33) |
                           (static_cast<std::uint64_t>(slot) << 1) |
                           (observer ? 1u : 0u);
  // The first firing goes through the heap: only re-arms are known to be
  // in order for a lane.
  heap_.push_back(Entry{std::max(first_at, now_), next_seq_++, id});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  ++live_count_;
  if (observer) ++live_observers_;
  return id;
}

int EventQueue::LaneFor(SimTime period) {
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (lanes_[i].period == period) return static_cast<int>(i);
  }
  if (lanes_.size() == kMaxLanes) return kHeap;
  lanes_.push_back(Lane{period, {}});
  return static_cast<int>(lanes_.size() - 1);
}

void EventQueue::Retire(std::uint64_t id) {
  const auto slot = static_cast<std::uint32_t>(SlotOf(id));
  Slot& s = slots_[slot];
  s.live = false;
  s.cb = nullptr;
  // 31 generation bits; 0 is skipped so no id is ever 0.
  s.generation = (s.generation + 1) & 0x7fffffffu;
  if (s.generation == 0) s.generation = 1;
  free_slots_.push_back(slot);
  --live_count_;
  if (IsObserverId(id)) --live_observers_;
}

bool EventQueue::Cancel(std::uint64_t id) {
  // Already fired or already cancelled (or never existed): report failure
  // and leave the bookkeeping untouched.
  if (!IsLive(id)) return false;
  Retire(id);
  return true;
}

int EventQueue::Head() {
  while (!heap_.empty() && !IsLive(heap_.front().id)) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
  }
  int best = heap_.empty() ? kNone : kHeap;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    std::deque<Entry>& lane = lanes_[i].entries;
    while (!lane.empty() && !IsLive(lane.front().id)) lane.pop_front();
    if (lane.empty()) continue;
    if (best == kNone || HeadEntry(best) > lane.front()) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

SimTime EventQueue::PeekNextTime(SimTime fallback) {
  const int source = Head();
  return source == kNone ? fallback : HeadEntry(source).when;
}

void EventQueue::Fire(int source) {
  Entry ev = HeadEntry(source);
  if (source == kHeap) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
  } else {
    lanes_[source].entries.pop_front();
  }
  const auto slot = static_cast<std::uint32_t>(SlotOf(ev.id));
  // The callback runs from a local: it may schedule events (and so grow
  // the slot table) or cancel its own task.
  Callback cb = std::move(slots_[slot].cb);
  const SimTime period = slots_[slot].period;
  const int lane = slots_[slot].lane;
  // A periodic task stays live while it fires, so its callback can
  // Cancel() it; a one-shot leaves the live set (is retired) as it fires.
  const bool periodic = period > 0.0;
  if (!periodic) Retire(ev.id);
  now_ = ev.when;
  cb(now_);
  // Re-arm unless the callback cancelled the task, or it is an observer
  // with nothing but observers left to watch.
  if (!periodic || !IsLive(ev.id)) return;
  if (IsObserverId(ev.id) && live_count_ == live_observers_) {
    Retire(ev.id);
    return;
  }
  slots_[slot].cb = std::move(cb);
  ev.when = std::max(ev.when + period, now_);
  ev.seq = next_seq_++;
  // In order unless the callback advanced time (a nested RunUntil) past
  // re-arms of this period; such a re-arm takes the heap.
  if (lane != kHeap) {
    std::deque<Entry>& entries = lanes_[lane].entries;
    if (entries.empty() || entries.back().when <= ev.when) {
      entries.push_back(ev);
      return;
    }
  }
  heap_.push_back(ev);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

bool EventQueue::Step() {
  const int source = Head();
  if (source == kNone) return false;
  Fire(source);
  return true;
}

std::size_t EventQueue::RunUntil(SimTime horizon) {
  std::size_t executed = 0;
  // Head() drops cancelled tombstones, so the horizon check sees the live
  // head (popping blindly could skip past a tombstone and run an event that
  // lies beyond the horizon).
  for (int source = Head();
       source != kNone && HeadEntry(source).when <= horizon;
       source = Head()) {
    Fire(source);
    ++executed;
  }
  // Even when no event is left at/before the horizon, time advances to it so
  // callers can interleave RunUntil with manual sampling.
  now_ = std::max(now_, horizon);
  return executed;
}

std::size_t EventQueue::RunAll() {
  std::size_t executed = 0;
  while (Step()) ++executed;
  return executed;
}

}  // namespace eco
