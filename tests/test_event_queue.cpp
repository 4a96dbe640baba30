// Differential suite for the event queue: the product EventQueue (period
// lanes, slot table; common/sim_clock.hpp) against ref::EventQueue (one
// binary heap, std::unordered_set liveness; ref_event_queue.hpp), driven in
// lockstep by the same randomized mix. Both must fire the same events in
// the same order at the same times, and agree on empty(), pending(), now(),
// PeekNextTime(), IsLive() and every Cancel() result after every step.
//
// The mix covers one-shots, plain and observer tasks on eleven periods
// (more than the queue has lanes, so some re-arm through the heap), events
// and tasks cancelled from inside and outside callbacks (a task's own id
// included), RunUntil horizons, and callbacks that advance time with a
// nested RunUntil, the one way a re-arm can land behind its lane's tail.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "common/sim_clock.hpp"
#include "ref_event_queue.hpp"

namespace eco {
namespace {

constexpr SimTime kPeriods[] = {0.25, 0.5, 1.0, 3.0, 0.1, 0.7,
                                1.5,  2.0, 5.0, 7.5, 11.0};
constexpr std::size_t kPeriodCount = sizeof(kPeriods) / sizeof(kPeriods[0]);

// One firing: when it ran and which scheduling call armed it (the index of
// that call's id, the same on both sides).
struct Firing {
  SimTime when;
  std::size_t tag;
  bool operator==(const Firing& o) const {
    return when == o.when && tag == o.tag;
  }
};

// One queue plus the state its callbacks act on. Callback decisions draw
// from the side's own generator, so two sides stay in step exactly as long
// as their queues fire the same events in the same order.
template <class Queue>
class Side {
 public:
  explicit Side(std::uint64_t seed) : rng_(seed) {}

  Queue& queue() { return queue_; }
  const std::vector<Firing>& fired() const { return fired_; }
  const std::vector<std::uint64_t>& ids() const { return ids_; }
  void set_quiet(bool quiet) { quiet_ = quiet; }

  std::size_t OneShot(SimTime when) {
    const std::size_t tag = ids_.size();
    ids_.push_back(0);
    ids_[tag] = queue_.ScheduleAt(
        when, [this, tag](SimTime t) { OnFire(tag, t, false); });
    observer_.push_back(false);
    return tag;
  }

  std::size_t Task(SimTime first, SimTime period, bool observer) {
    const std::size_t tag = ids_.size();
    ids_.push_back(0);
    ids_[tag] = queue_.ScheduleEvery(
        first, period, [this, tag](SimTime t) { OnFire(tag, t, true); },
        observer ? Queue::TaskKind::kObserver : Queue::TaskKind::kPlain);
    observer_.push_back(observer);
    return tag;
  }

  bool CancelTag(std::size_t tag) { return queue_.Cancel(ids_[tag]); }
  bool IsLiveTag(std::size_t tag) const { return queue_.IsLive(ids_[tag]); }
  bool IsObserverTag(std::size_t tag) const { return observer_[tag]; }

 private:
  std::size_t Draw(std::size_t n) { return rng_() % n; }

  // Delays on a quarter-second grid and the task periods make ties with
  // task firings common; the last kind is off any grid.
  SimTime Delay() {
    switch (Draw(4)) {
      case 0:
        return 0.0;
      case 1:
        return 0.25 * static_cast<double>(Draw(12));
      case 2:
        return kPeriods[Draw(kPeriodCount)];
      default:
        return static_cast<double>(Draw(1000)) / 128.0;
    }
  }

  void OnFire(std::size_t tag, SimTime t, bool periodic) {
    fired_.push_back({t, tag});
    if (quiet_) return;
    const std::size_t roll = Draw(100);
    const bool room = ids_.size() < 3000;
    if (roll < 22 && room) {
      OneShot(t + Delay());
    } else if (roll < 32) {
      (void)CancelTag(Draw(ids_.size()));
    } else if (roll < 37 && periodic) {
      (void)CancelTag(tag);  // a task cancelling itself
    } else if (roll < 42 && depth_ == 0) {
      // Advance time from inside a callback: the task that is firing
      // re-arms behind the re-arms this nested run makes.
      ++depth_;
      (void)queue_.RunUntil(t + Delay());
      --depth_;
    } else if (roll < 45 && room) {
      Task(t + Delay(), kPeriods[Draw(kPeriodCount)], Draw(4) == 0);
    }
  }

  Queue queue_;
  std::mt19937_64 rng_;
  std::vector<std::uint64_t> ids_;
  std::vector<bool> observer_;
  std::vector<Firing> fired_;
  int depth_ = 0;
  bool quiet_ = false;
};

// Runs the mix for `actions` top-level steps. Returns the number of firings
// both sides agreed on; stops at (and reports) the first disagreement.
std::size_t RunDifferential(std::uint64_t seed, int actions) {
  Side<EventQueue> fast(seed);
  Side<ref::EventQueue> ref(seed);
  std::mt19937_64 steps(seed ^ 0x9e3779b97f4a7c15ull);
  const auto draw = [&steps](std::size_t n) { return steps() % n; };
  bool ok = true;

  const auto compare = [&](int step) {
    const auto& a = fast.fired();
    const auto& b = ref.fired();
    if (a.size() != b.size()) {
      ADD_FAILURE() << "seed " << seed << " step " << step << ": "
                    << a.size() << " firings vs ref " << b.size();
      return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (!(a[i] == b[i])) {
        ADD_FAILURE() << "seed " << seed << " step " << step << " firing "
                      << i << ": (" << a[i].when << ", #" << a[i].tag
                      << ") vs ref (" << b[i].when << ", #" << b[i].tag << ")";
        return false;
      }
    }
    if (fast.queue().empty() != ref.queue().empty() ||
        fast.queue().pending() != ref.queue().pending() ||
        fast.queue().now() != ref.queue().now()) {
      ADD_FAILURE() << "seed " << seed << " step " << step << ": pending "
                    << fast.queue().pending() << " vs ref "
                    << ref.queue().pending() << ", now " << fast.queue().now()
                    << " vs ref " << ref.queue().now();
      return false;
    }
    return true;
  };

  for (int step = 0; step < actions && ok; ++step) {
    const std::size_t roll = draw(100);
    const std::size_t n = fast.ids().size();
    if (roll < 45) {
      EXPECT_EQ(fast.queue().Step(), ref.queue().Step());
    } else if (roll < 60) {
      const SimTime horizon =
          fast.queue().now() + static_cast<double>(draw(40)) / 8.0;
      EXPECT_EQ(fast.queue().RunUntil(horizon), ref.queue().RunUntil(horizon));
    } else if (roll < 70 && n < 3000) {
      const SimTime when =
          fast.queue().now() + static_cast<double>(draw(64)) / 8.0;
      fast.OneShot(when);
      ref.OneShot(when);
    } else if (roll < 78 && n < 3000) {
      const SimTime first =
          fast.queue().now() + static_cast<double>(draw(16)) / 4.0;
      const SimTime period = kPeriods[draw(kPeriodCount)];
      const bool observer = draw(3) == 0;
      fast.Task(first, period, observer);
      ref.Task(first, period, observer);
    } else if (roll < 88 && n > 0) {
      const std::size_t tag = draw(n);
      EXPECT_EQ(fast.CancelTag(tag), ref.CancelTag(tag)) << "tag " << tag;
    } else if (roll < 94) {
      EXPECT_EQ(fast.queue().PeekNextTime(-1.0),
                ref.queue().PeekNextTime(-1.0));
    } else if (n > 0) {
      for (std::size_t tag = 0; tag < n; ++tag) {
        if (fast.IsLiveTag(tag) != ref.IsLiveTag(tag)) {
          ADD_FAILURE() << "seed " << seed << " step " << step << ": IsLive #"
                        << tag << " " << fast.IsLiveTag(tag) << " vs ref";
          ok = false;
          break;
        }
      }
    }
    ok = ok && compare(step);
  }
  if (!ok) return 0;

  // Wind down: callbacks stop acting, every plain event and task is
  // cancelled, and the observers left must stop on their own in RunAll().
  fast.set_quiet(true);
  ref.set_quiet(true);
  for (std::size_t tag = 0; tag < fast.ids().size(); ++tag) {
    if (fast.IsObserverTag(tag)) continue;
    EXPECT_EQ(fast.CancelTag(tag), ref.CancelTag(tag)) << "tag " << tag;
  }
  EXPECT_EQ(fast.queue().RunAll(), ref.queue().RunAll());
  if (!compare(actions)) return 0;
  EXPECT_TRUE(fast.queue().empty());
  for (std::size_t tag = 0; tag < fast.ids().size(); ++tag) {
    EXPECT_FALSE(fast.IsLiveTag(tag)) << "tag " << tag;
  }
  return fast.fired().size();
}

TEST(EventQueueDifferential, RandomMixesMatchTheReferenceQueue) {
  std::size_t firings = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const std::size_t agreed = RunDifferential(seed, 3000);
    ASSERT_GT(agreed, 0u) << "seed " << seed;
    firings += agreed;
  }
  EXPECT_GT(firings, 50000u);  // the mix fired enough to mean something
}

// A recycled slot must not revive an old id: after an event retires, its
// id stays dead even once later events reuse the slot.
TEST(EventQueueDifferential, RetiredIdsStayDeadWhenSlotsAreReused) {
  EventQueue q;
  std::vector<std::uint64_t> retired;
  for (int round = 0; round < 50; ++round) {
    const std::uint64_t fired = q.ScheduleAfter(1.0, [](SimTime) {});
    const std::uint64_t cancelled = q.ScheduleAfter(2.0, [](SimTime) {});
    EXPECT_TRUE(q.Cancel(cancelled));
    q.RunAll();
    retired.push_back(fired);
    retired.push_back(cancelled);
    for (const std::uint64_t id : retired) {
      EXPECT_FALSE(q.IsLive(id));
      EXPECT_FALSE(q.Cancel(id));
    }
    EXPECT_EQ(q.pending(), 0u);
  }
  EXPECT_FALSE(q.IsLive(0));
  EXPECT_FALSE(q.Cancel(0));
}

}  // namespace
}  // namespace eco
