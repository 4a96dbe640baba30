#include "ref_event_queue.hpp"

#include <algorithm>

namespace eco::ref {

std::uint64_t EventQueue::ScheduleAt(SimTime when, Callback cb) {
  return ScheduleEvery(when, 0.0, std::move(cb));
}

std::uint64_t EventQueue::ScheduleAfter(SimTime delay, Callback cb) {
  return ScheduleAt(now_ + std::max(0.0, delay), std::move(cb));
}

std::uint64_t EventQueue::ScheduleEvery(SimTime first_at, SimTime period,
                                        Callback cb, TaskKind kind) {
  const bool observer = kind == TaskKind::kObserver;
  const std::uint64_t id = (next_id_++ << 1) | (observer ? 1u : 0u);
  heap_.push_back(
      Event{std::max(first_at, now_), next_seq_++, id, period, std::move(cb)});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  live_ids_.insert(id);
  if (observer) ++live_observers_;
  return id;
}

bool EventQueue::Cancel(std::uint64_t id) {
  // Already fired or already cancelled (or never existed): report failure
  // and leave the bookkeeping untouched.
  if (live_ids_.erase(id) == 0) return false;
  if (IsObserverId(id)) --live_observers_;
  return true;
}

SimTime EventQueue::PeekNextTime(SimTime fallback) {
  while (!heap_.empty() && !IsLive(heap_.front().id)) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
  }
  return heap_.empty() ? fallback : heap_.front().when;
}

bool EventQueue::Step() {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    Event ev = std::move(heap_.back());
    heap_.pop_back();
    // A periodic task stays live while it fires, so its callback can
    // Cancel() it; a one-shot leaves the live set (is retired) as it fires.
    const bool periodic = ev.period > 0.0;
    if (periodic ? !IsLive(ev.id) : !Cancel(ev.id)) {
      continue;  // cancelled: skip silently
    }
    now_ = ev.when;
    ev.cb(now_);
    // Re-arm unless the callback cancelled the task, or it is an observer
    // with nothing but observers left to watch.
    if (!periodic || !IsLive(ev.id)) return true;
    if (IsObserverId(ev.id) && live_ids_.size() == live_observers_) {
      Cancel(ev.id);
      return true;
    }
    ev.when = std::max(ev.when + ev.period, now_);
    ev.seq = next_seq_++;
    heap_.push_back(std::move(ev));
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    return true;
  }
  return false;
}

std::size_t EventQueue::RunUntil(SimTime horizon) {
  std::size_t executed = 0;
  // PeekNextTime drops cancelled tombstones, so the horizon check sees the
  // live head (Step() alone could skip past a tombstone and run an event
  // that lies beyond the horizon).
  while (PeekNextTime(horizon) <= horizon && Step()) ++executed;
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

}  // namespace eco::ref
