#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/sim_clock.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace eco {
namespace {

// ----------------------------------------------------------------- Error

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_TRUE(s.message().empty());
}

TEST(Status, ErrorCarriesMessage) {
  const Status s = Status::Error("boom");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "boom");
}

TEST(Result, ValueAccess) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(Result, ErrorPath) {
  auto r = Result<int>::Error("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.message(), "nope");
  EXPECT_EQ(r.value_or(-1), -1);
}

// ----------------------------------------------------------------- Units

TEST(Units, FrequencyConversions) {
  EXPECT_DOUBLE_EQ(KiloHertzToGHz(kHz(2'200'000)), 2.2);
  EXPECT_EQ(GHzToKiloHertz(2.5), kHz(2'500'000));
  EXPECT_EQ(GHzToKiloHertz(KiloHertzToGHz(1'500'000)), kHz(1'500'000));
}

TEST(Units, EnergyAndMemory) {
  EXPECT_DOUBLE_EQ(JoulesToKiloJoules(240200.0), 240.2);
  EXPECT_EQ(GiB(256), 256ull * 1024 * 1024 * 1024);
  EXPECT_DOUBLE_EQ(BytesToGiB(static_cast<double>(GiB(32))), 32.0);
}

// ------------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.UniformInt(3, 6);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 6);
    saw_lo |= v == 3;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMomentsRoughlyStandard) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextGaussian();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, ForkIndependentButDeterministic) {
  Rng a(5);
  Rng fork1 = a.Fork();
  Rng b(5);
  Rng fork2 = b.Fork();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fork1.NextU64(), fork2.NextU64());
}

// ------------------------------------------------------------ EventQueue

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(3.0, [&](SimTime) { order.push_back(3); });
  q.ScheduleAt(1.0, [&](SimTime) { order.push_back(1); });
  q.ScheduleAt(2.0, [&](SimTime) { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, TiesBreakInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(1.0, [&](SimTime) { order.push_back(1); });
  q.ScheduleAt(1.0, [&](SimTime) { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, ScheduleAfterIsRelative) {
  EventQueue q;
  double fired_at = -1.0;
  q.ScheduleAt(5.0, [&](SimTime) {
    q.ScheduleAfter(2.5, [&](SimTime t) { fired_at = t; });
  });
  q.RunAll();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(EventQueue, CancelAfterFireReportsFailureAndKeepsCountsSane) {
  EventQueue q;
  const auto id = q.ScheduleAt(1.0, [](SimTime) {});
  q.RunAll();
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.Cancel(id));  // already fired
  EXPECT_TRUE(q.empty());     // count not corrupted
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, RunUntilSkipsCancelledTombstonesWithoutOverrunningHorizon) {
  EventQueue q;
  int fired = 0;
  const auto early = q.ScheduleAt(1.0, [&](SimTime) { ++fired; });
  q.ScheduleAt(10.0, [&](SimTime) { ++fired; });
  q.Cancel(early);
  // The cancelled t=1 tombstone must not trick RunUntil into executing the
  // t=10 event before the horizon.
  EXPECT_EQ(q.RunUntil(5.0), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
  q.RunAll();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const auto id = q.ScheduleAt(1.0, [&](SimTime) { fired = true; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));  // double-cancel reports failure
  q.RunAll();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RunUntilStopsAtHorizonAndAdvancesClock) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(1.0, [&](SimTime) { ++fired; });
  q.ScheduleAt(10.0, [&](SimTime) { ++fired; });
  EXPECT_EQ(q.RunUntil(5.0), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
  q.RunAll();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, EventsSchedulingEventsCascade) {
  EventQueue q;
  int depth = 0;
  std::function<void(SimTime)> chain = [&](SimTime) {
    if (++depth < 5) q.ScheduleAfter(1.0, chain);
  };
  q.ScheduleAfter(1.0, chain);
  q.RunAll();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
}

// Two samplers beside a finite workload (a chain of one-shots at t=1..10).
// Hand-rolled "re-arm while the queue is non-empty" samplers keep each
// other alive forever; observer tasks each fire exactly as often as they
// would beside the workload alone, and RunAll() returns.
TEST(EventQueue, ObserverTasksCannotKeepEachOtherAlive) {
  const auto run = [](bool with_a, bool with_b) {
    EventQueue q;
    std::function<void(SimTime)> chain = [&](SimTime t) {
      if (t < 10.0) q.ScheduleAfter(1.0, chain);
    };
    q.ScheduleAt(1.0, chain);
    std::pair<int, int> fired{0, 0};
    std::uint64_t a = 0;
    if (with_a) {
      a = q.ScheduleEvery(3.0, 3.0, [&](SimTime) { ++fired.first; },
                          EventQueue::TaskKind::kObserver);
    }
    if (with_b) {
      q.ScheduleEvery(4.0, 4.0, [&](SimTime) { ++fired.second; },
                      EventQueue::TaskKind::kObserver);
    }
    q.RunAll();
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.IsLive(a));
    EXPECT_FALSE(q.Cancel(a));  // stopped on its own
    return fired;
  };
  const auto both = run(true, true);
  EXPECT_EQ(both.first, run(true, false).first);
  EXPECT_EQ(both.second, run(false, true).second);
  EXPECT_EQ(both, std::make_pair(4, 3));  // a: 3,6,9,12  b: 4,8,12
}

TEST(EventQueue, TaskCancelledFromItsOwnCallbackStops) {
  EventQueue q;
  int fired = 0;
  std::uint64_t id = 0;
  id = q.ScheduleEvery(1.0, 1.0, [&](SimTime) {
    if (++fired == 3) {
      EXPECT_TRUE(q.Cancel(id));
    }
  });
  EXPECT_EQ(q.pending(), 1u);
  q.RunAll();
  EXPECT_EQ(fired, 3);
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.Cancel(id));
}

// The task re-arms after its callback returns, so a one-shot the callback
// schedules for the next firing's timestamp runs first: the order a
// callback ending in ScheduleAfter(period) gives.
TEST(EventQueue, OneShotFromTaskCallbackPrecedesItsNextFiring) {
  EventQueue q;
  std::vector<std::string> order;
  const auto id = q.ScheduleEvery(1.0, 1.0, [&](SimTime t) {
    order.push_back("task@" + std::to_string(static_cast<int>(t)));
    if (t == 1.0) {
      q.ScheduleAfter(1.0, [&](SimTime) { order.push_back("shot@2"); });
    }
  });
  q.RunUntil(2.0);
  q.Cancel(id);
  EXPECT_EQ(order,
            (std::vector<std::string>{"task@1", "shot@2", "task@2"}));
}

TEST(EventQueue, TaskFiresExactlyAtRunUntilHorizon) {
  EventQueue q;
  std::vector<SimTime> fired;
  q.ScheduleEvery(5.0, 5.0, [&](SimTime t) { fired.push_back(t); });
  EXPECT_EQ(q.RunUntil(10.0), 2u);
  EXPECT_EQ(fired, (std::vector<SimTime>{5.0, 10.0}));
  EXPECT_DOUBLE_EQ(q.now(), 10.0);
  EXPECT_EQ(q.pending(), 1u);  // re-armed for t=15
  EXPECT_DOUBLE_EQ(q.PeekNextTime(), 15.0);
}

TEST(EventQueue, PastTimesClampToNow) {
  EventQueue q;
  q.ScheduleAt(5.0, [](SimTime) {});
  q.RunAll();
  double fired_at = -1.0;
  q.ScheduleAt(1.0, [&](SimTime t) { fired_at = t; });  // in the past
  q.RunAll();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

// ----------------------------------------------------------------- Table

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"Cores", "GHz"});
  t.AddRow({"32", "2.2"});
  t.AddRow({"1", "1.5"});
  const std::string out = t.Render();
  EXPECT_NE(out.find("| Cores | GHz |"), std::string::npos);
  EXPECT_NE(out.find("| 32    | 2.2 |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, ShortRowsPadded) {
  TextTable t({"a", "b", "c"});
  t.AddRow({"1"});
  EXPECT_NE(t.Render().find("| 1 |"), std::string::npos);
}

// ------------------------------------------------------------------- Log

TEST(Logger, SinkReceivesMessagesAtOrAboveLevel) {
  std::vector<std::string> seen;
  Logger::Instance().SetSink(
      [&](LogLevel, const std::string& m) { seen.push_back(m); });
  Logger::Instance().SetLevel(LogLevel::kWarn);
  ECO_INFO << "hidden";
  ECO_WARN << "shown " << 42;
  Logger::Instance().SetSink(nullptr);
  Logger::Instance().SetLevel(LogLevel::kInfo);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "shown 42");
}

TEST(Logger, LevelNames) {
  EXPECT_STREQ(LogLevelName(LogLevel::kInfo), "INFO");
  EXPECT_STREQ(LogLevelName(LogLevel::kError), "ERROR");
}

}  // namespace
}  // namespace eco
