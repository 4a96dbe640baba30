// Reference event queue: the binary-heap EventQueue with an
// std::unordered_set of live ids that the product's queue
// (common/sim_clock.hpp) replaced, kept in the test tree as the oracle the
// product's period lanes and slot table are checked against
// (test_event_queue.cpp). Same public contract; ids are sequential.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "common/sim_clock.hpp"

namespace eco::ref {

class EventQueue {
 public:
  using Callback = std::function<void(SimTime)>;

  // A kPlain periodic task fires until cancelled. A kObserver task (a
  // sampler) also stops once no non-observer event is live, so observers
  // cannot keep one another, or RunAll(), going.
  enum class TaskKind { kPlain, kObserver };

  // Schedules `cb` at absolute time `when` (clamped to now for past times).
  // Returns an id usable with Cancel().
  std::uint64_t ScheduleAt(SimTime when, Callback cb);
  std::uint64_t ScheduleAfter(SimTime delay, Callback cb);

  // Fires `cb` at `first_at` (clamped to now), then every `period` (0 makes
  // a one-shot, as ScheduleAt does): once the callback returns, the task
  // re-arms at its fire time + `period` with a sequence number after
  // everything the callback scheduled (the order a callback ending in
  // ScheduleAfter(period) gives). The id is valid for the task's whole life;
  // Cancel(id) stops it, also from inside its own callback. An armed task
  // counts as one live event in empty()/pending().
  std::uint64_t ScheduleEvery(SimTime first_at, SimTime period, Callback cb,
                              TaskKind kind = TaskKind::kPlain);

  // Cancels a pending event or task; returns false if it already fired or
  // stopped, or is unknown.
  bool Cancel(std::uint64_t id);
  // True while the event or task `id` is pending.
  [[nodiscard]] bool IsLive(std::uint64_t id) const {
    return live_ids_.count(id) != 0;
  }

  // Runs the next event; returns false if the queue is empty.
  bool Step();
  // Runs until the queue drains or `horizon` is passed (events scheduled at
  // exactly `horizon` still run). Returns the number of events executed.
  std::size_t RunUntil(SimTime horizon);
  std::size_t RunAll();

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] bool empty() const { return live_ids_.empty(); }
  [[nodiscard]] std::size_t pending() const { return live_ids_.size(); }
  // Timestamp of the next live (non-cancelled) event; `fallback` when the
  // queue is empty. Drops cancelled tombstones as a side effect.
  [[nodiscard]] SimTime PeekNextTime(SimTime fallback = 0.0);

 private:
  struct Event {
    SimTime when;
    // Monotone insertion counter. This is the determinism contract: events
    // scheduled at the same timestamp fire strictly in the order they were
    // scheduled, regardless of heap internals or cancellations in between
    // (regression-tested in test_sched_index.cpp). Batch submission and
    // deferred dispatch both rely on it.
    std::uint64_t seq;
    std::uint64_t id;
    SimTime period;  // 0 for a one-shot event
    Callback cb;
    bool operator>(const Event& other) const {
      if (when != other.when) return when > other.when;
      return seq > other.seq;
    }
  };

  // An id's low bit marks an observer, so Cancel() keeps the count cheaply.
  static bool IsObserverId(std::uint64_t id) { return (id & 1u) != 0; }

  std::vector<Event> heap_;  // min-heap on (when, seq) via std::greater
  // Ids of events that have neither fired nor been cancelled, and of tasks
  // until they stop (a task stays live while it fires). Cancelled events
  // stay in the heap and are dropped when popped.
  std::unordered_set<std::uint64_t> live_ids_;
  std::size_t live_observers_ = 0;  // observer tasks among live_ids_
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_id_ = 1;
};

}  // namespace eco::ref
