// Discrete-event simulation core.
//
// The cluster simulator, the IPMI sampler, and Chronus's benchmark loop all
// share one virtual clock. Events are (time, sequence, callback) tuples; ties
// break in insertion order so simulations are deterministic.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

namespace eco {

// Simulated time in seconds since simulation start.
using SimTime = double;

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
    const std::uint64_t slot = SlotOf(id);
    return slot < slots_.size() && slots_[slot].live &&
           slots_[slot].generation == GenerationOf(id);
  }

  // Runs the next event; returns false if the queue is empty.
  bool Step();
  // Runs until the queue drains or `horizon` is passed (events scheduled at
  // exactly `horizon` still run). Returns the number of events executed.
  std::size_t RunUntil(SimTime horizon);
  std::size_t RunAll();

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] bool empty() const { return live_count_ == 0; }
  [[nodiscard]] std::size_t pending() const { return live_count_; }
  // Timestamp of the next live (non-cancelled) event; `fallback` when the
  // queue is empty. Drops cancelled tombstones as a side effect.
  [[nodiscard]] SimTime PeekNextTime(SimTime fallback = 0.0);

 private:
  // One armed firing. The callback and period live in the event's slot, so
  // an entry is plain data and a re-arm moves no callback.
  struct Entry {
    SimTime when;
    // Monotone insertion counter. This is the determinism contract: events
    // scheduled at the same timestamp fire strictly in the order they were
    // scheduled, regardless of heap internals or cancellations in between
    // (regression-tested in test_sched_index.cpp). Batch submission and
    // deferred dispatch both rely on it.
    std::uint64_t seq;
    std::uint64_t id;
    bool operator>(const Entry& other) const {
      if (when != other.when) return when > other.when;
      return seq > other.seq;
    }
  };

  // Where the earliest live entry sits: the heap, a lane index, or nowhere.
  static constexpr int kHeap = -1;
  static constexpr int kNone = -2;

  // A live event or task. Slots are recycled once their event retires, so
  // the table is as large as the most events ever live at once; the
  // generation in the id tells a recycled slot's new event from the old.
  struct Slot {
    Callback cb;
    SimTime period = 0.0;       // 0 for a one-shot event
    std::uint32_t generation = 0;
    int lane = kHeap;           // the task's re-arm lane, or the heap
    bool live = false;
  };

  // Re-arms of the tasks with one period, in (when, seq) order by
  // construction (DESIGN.md "Event loop"): a task firing at `now` re-arms at
  // now + period, no earlier than any re-arm already queued (each was
  // w + period with w <= now, and rounding is monotone), under a fresh seq.
  struct Lane {
    SimTime period = 0.0;
    std::deque<Entry> entries;
  };
  // Periods beyond this many re-arm through the heap, which keeps the
  // head scan O(1).
  static constexpr std::size_t kMaxLanes = 8;

  // Id layout: bit 0 marks an observer (so Cancel() keeps the count
  // cheaply), bits 1-32 are the slot, bits 33-63 the slot's generation.
  static bool IsObserverId(std::uint64_t id) { return (id & 1u) != 0; }
  static std::uint64_t SlotOf(std::uint64_t id) {
    return (id >> 1) & 0xffffffffu;
  }
  static std::uint32_t GenerationOf(std::uint64_t id) {
    return static_cast<std::uint32_t>(id >> 33);
  }

  // Frees the slot of live event `id` (its callback is destroyed).
  void Retire(std::uint64_t id);
  int LaneFor(SimTime period);
  // Drops dead entries off the heap and lane fronts and returns the
  // earliest live entry's source.
  int Head();
  [[nodiscard]] const Entry& HeadEntry(int source) const {
    return source == kHeap ? heap_.front() : lanes_[source].entries.front();
  }
  // Pops the head entry of `source` and runs it.
  void Fire(int source);

  std::vector<Entry> heap_;  // min-heap on (when, seq) via std::greater
  std::vector<Lane> lanes_;
  // Live events, and tasks until they stop (a task stays live while it
  // fires). Cancelled events' entries stay queued and are dropped when they
  // reach a head.
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_count_ = 0;
  std::size_t live_observers_ = 0;  // observer tasks among the live
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace eco
